package ingest

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/tstore"
)

// withConvoy adds to a run the traffic a shared route prior learns from:
// n vessels on one dogleg lane (east, then north at the turn), 12 kn,
// reporting every 30 s, each setting off 4 min after the one before and
// all cut where the run ends — so the late starters are still
// approaching the turn the early ones took. Positions stay time-ordered.
func withConvoy(run *sim.Run, n int) {
	start, end := run.Config.Start, run.Config.Start.Add(run.Config.Duration)
	const legPoints, step = 80, 30 * time.Second
	for i := range n {
		pos := geo.Point{Lat: 41 + float64(i)*1e-4, Lon: 6}
		at := start.Add(time.Duration(i) * 4 * time.Minute)
		for j := 0; j < 2*legPoints && at.Before(end); j++ {
			course := 90.0
			if j >= legPoints {
				course = 0
			}
			run.Positions = append(run.Positions, sim.Observation{At: at, Report: ais.PositionReport{
				Type: ais.TypePositionA, MMSI: uint32(299000000 + i), SpeedKn: 12,
				Position: pos, CourseDeg: course, Heading: int(course),
			}})
			pos = geo.Project(pos, geo.Velocity{SpeedMS: 12 * geo.Knot, CourseDg: course}, step.Seconds())
			at = at.Add(step)
		}
	}
	sort.SliceStable(run.Positions, func(i, j int) bool { return run.Positions[i].At.Before(run.Positions[j].At) })
}

// TestPredictMatchesArchiveAtAnyShards pins predict byte for byte: an
// engine running the track lane at 1, 2, 4 and 8 shards answers every
// vessel's predict, at three horizons, JSON-byte-equal to an archive
// source over the same archived records — and so equal across shard
// counts. The feed is a seeded fleet plus a convoy sharing one lane: a
// lane that forecast from a route model shared by a shard's vessels would
// answer the convoy by what its shard-mates had sailed, which moves with
// the shard count and which an archive of one vessel's history cannot
// reproduce.
func TestPredictMatchesArchiveAtAnyShards(t *testing.T) {
	run := simTraffic(t, 23, 40, 90*time.Minute)
	withConvoy(run, 20)
	horizons := []time.Duration{5 * time.Minute, 15 * time.Minute, 40 * time.Minute}
	asJSON := func(p *query.Prediction) string {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := map[query.Request]string{}
	for _, shards := range []int{1, 2, 4, 8} {
		_, e := runEngine(t, run, Config{
			Pipeline: pipelineCfg(run, 0), Shards: shards, Track: &track.Config{},
		})
		e.Wait()
		archive := tstore.New()
		for _, p := range e.Sharded().Shards {
			for _, mmsi := range p.Store.MMSIs() {
				for _, s := range p.Store.Trajectory(mmsi).Points {
					archive.Append(s)
				}
			}
		}
		if e.Tracks().VesselCount() != archive.VesselCount() {
			t.Fatalf("%d shards: track lane holds %d vessels, archive %d",
				shards, e.Tracks().VesselCount(), archive.VesselCount())
		}
		ref := query.NewEngine(query.NewStoreSource("archive", archive))
		for _, mmsi := range archive.MMSIs() {
			for _, h := range horizons {
				req := query.Request{Kind: query.KindPredict, MMSI: mmsi, Horizon: query.Duration(h)}
				res, err := e.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				got := asJSON(res.Prediction)
				if got != asJSON(want.Prediction) {
					t.Fatalf("%d shards, vessel %d at %v: engine != archive\nengine:  %s\narchive: %s",
						shards, mmsi, h, got, asJSON(want.Prediction))
				}
				if prev, ok := first[req]; !ok {
					first[req] = got
				} else if got != prev {
					t.Fatalf("%d shards, vessel %d at %v: answer moved with the shard count\n1 shard: %s\nnow:     %s",
						shards, mmsi, h, prev, got)
				}
			}
		}
	}
	if len(first) == 0 {
		t.Fatal("fixture archived nothing")
	}
}
