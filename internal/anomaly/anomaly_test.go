package anomaly

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/stream"
)

var t0 = time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC)

// leg appends n samples, one a minute starting at `at`, holding speed and
// course while drifting north-east, and returns the next free instant.
func leg(out *[]model.VesselState, mmsi uint32, at time.Time, n int, lat, lon, kn, course float64) time.Time {
	for i := 0; i < n; i++ {
		*out = append(*out, model.VesselState{
			MMSI: mmsi, At: at,
			Pos:     geo.Point{Lat: lat + float64(i)*0.0004, Lon: lon + float64(i)*0.0006},
			SpeedKn: kn, CourseDeg: course,
			Status: ais.StatusUnderWayEngine,
		})
		at = at.Add(time.Minute)
	}
	return at
}

// anomalyFleet builds a deterministic fleet exercising the whole fold:
// vessel 1 stops mid-voyage (closed stop/move episodes), vessels 2 and 3
// go dark over overlapping windows close together (a feasible
// rendezvous), vessel 4 sails clean.
func anomalyFleet() map[uint32][]model.VesselState {
	fleet := make(map[uint32][]model.VesselState)

	var a []model.VesselState
	at := leg(&a, 201000001, t0, 20, 42.00, 5.00, 12, 45) // underway: closed at the stop
	at = leg(&a, 201000001, at, 15, 42.008, 5.012, 0.2, 45)
	leg(&a, 201000001, at, 20, 42.008, 5.012, 12, 45)
	fleet[201000001] = a

	var b []model.VesselState
	at = leg(&b, 201000002, t0, 11, 42.10, 5.10, 10, 30)
	leg(&b, 201000002, at.Add(40*time.Minute), 11, 42.11, 5.101, 10, 30)
	fleet[201000002] = b

	var c []model.VesselState
	at = leg(&c, 201000003, t0.Add(2*time.Minute), 11, 42.105, 5.102, 9, 210)
	leg(&c, 201000003, at.Add(38*time.Minute), 11, 42.112, 5.103, 9, 210)
	fleet[201000003] = c

	var d []model.VesselState
	leg(&d, 201000004, t0, 30, 42.30, 5.30, 14, 60)
	fleet[201000004] = d

	return fleet
}

// interleave flattens a fleet into one time-ordered feed (MMSI breaks
// ties), the order the sharded pipelines would tee records in.
func interleave(fleet map[uint32][]model.VesselState) []model.VesselState {
	var all []model.VesselState
	for _, pts := range fleet {
		all = append(all, pts...)
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].At.Before(all[j-1].At) ||
			(all[j].At.Equal(all[j-1].At) && all[j].MMSI < all[j-1].MMSI)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

// feed routes a time-ordered feed through the stage set the way the
// ingest tee does: each record appended to its vessel's owning shard,
// shards running concurrently (per-vessel order is preserved because a
// vessel lives on exactly one shard).
func feed(ss *Stages, all []model.VesselState) {
	perShard := make([][]model.VesselState, ss.Len())
	for _, s := range all {
		i := stream.ShardOf(uint64(s.MMSI), ss.Len())
		perShard[i] = append(perShard[i], s)
	}
	var wg sync.WaitGroup
	for i, recs := range perShard {
		wg.Add(1)
		go func(i int, recs []model.VesselState) {
			defer wg.Done()
			for _, r := range recs {
				ss.Stage(i).Append(r)
			}
		}(i, recs)
	}
	wg.Wait()
}

// TestStageMatchesOfflineReplay pins the anomalies equivalence contract
// at the stage level: the online fold, fed shard-concurrently, renders
// byte-identical reports to query.Replay folding the same
// histories — per vessel and for the fleet ranking. Run under -race this
// also exercises the stage/shared locking.
func TestStageMatchesOfflineReplay(t *testing.T) {
	fleet := anomalyFleet()
	ss := NewStages(4, Config{})
	feed(ss, interleave(fleet))

	var derived []*query.VesselAnomaly
	for mmsi, pts := range fleet {
		want := query.Replay(query.NewAnomalyAccumulator, mmsi, pts)
		got, ok := ss.VesselAnomaly(mmsi)
		if !ok || got == nil {
			t.Fatalf("vessel %d missing from the stage", mmsi)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("vessel %d online report diverged from replay:\n%s\n%s", mmsi, gj, wj)
		}
		derived = append(derived, want)
	}

	ranked, ok := ss.RankedAnomalies(0)
	if !ok {
		t.Fatal("stage ranking not ok")
	}
	gj, _ := json.Marshal(ranked)
	wj, _ := json.Marshal(query.RankAnomalies(derived, 0))
	if string(gj) != string(wj) {
		t.Fatalf("online ranking diverged from replay:\n%s\n%s", gj, wj)
	}

	if top, _ := ss.RankedAnomalies(2); len(top) != 2 {
		t.Fatalf("limit 2 returned %d entries", len(top))
	}
	if _, ok := ss.VesselAnomaly(999); ok {
		t.Fatal("unknown vessel reported a profile")
	}
	if ss.VesselCount() != len(fleet) {
		t.Fatalf("VesselCount %d, want %d", ss.VesselCount(), len(fleet))
	}
}

// TestStageMaterialisesEpisodes pins continuous materialisation: the
// triples the stage writes as episodes close equal the batch pipeline
// (SegmentEpisodes + MaterialiseEpisodes) over the same history. The
// trailing underway leg is shorter than MinDuration, so batch drops it
// and online (which never materialises the open episode) agrees.
func TestStageMaterialisesEpisodes(t *testing.T) {
	const mmsi = 201000001
	var pts []model.VesselState
	at := leg(&pts, mmsi, t0, 20, 42.0, 5.0, 12, 45)
	at = leg(&pts, mmsi, at, 15, 42.008, 5.012, 0.2, 45)
	leg(&pts, mmsi, at, 5, 42.008, 5.012, 12, 45) // 4 min span: below MinDuration

	online := semstore.NewStore()
	ss := NewStages(1, Config{Semantic: online})
	for _, p := range pts {
		ss.Stage(0).Append(p)
	}

	batch := semstore.NewStore()
	eps := semstore.SegmentEpisodes(&model.Trajectory{MMSI: mmsi, Points: pts}, nil, semstore.DefaultEpisodeConfig())
	n := semstore.MaterialiseEpisodes(batch, eps)

	if int64(len(eps)) != ss.EpisodeCount() {
		t.Fatalf("stage closed %d episodes, batch segmenter found %d", ss.EpisodeCount(), len(eps))
	}
	if online.Len() != n {
		t.Fatalf("online store has %d triples, batch wrote %d", online.Len(), n)
	}
	gj, _ := json.Marshal(online.Match(semstore.Pattern{}))
	wj, _ := json.Marshal(batch.Match(semstore.Pattern{}))
	if string(gj) != string(wj) {
		t.Fatalf("online triples diverged from batch materialisation:\n%s\n%s", gj, wj)
	}
}

// TestStageContinuousRendezvous pins the online CEP against the offline
// sweep: the alerts the stage fires as gaps close are exactly
// events.QualifyRendezvous over the reconstructed trajectories, pushed
// through OnAlert.
func TestStageContinuousRendezvous(t *testing.T) {
	fleet := anomalyFleet()
	trajectories := make(map[uint32]*model.Trajectory)
	for mmsi, pts := range fleet {
		trajectories[mmsi] = &model.Trajectory{MMSI: mmsi, Points: pts}
	}
	want := events.QualifyRendezvous(trajectories, nil, query.AnomalyGapThreshold, events.DefaultOpenWorldConfig())
	if len(want) == 0 {
		t.Fatal("fixture produced no offline rendezvous — the test has no oracle")
	}

	ss := NewStages(2, Config{})
	var mu sync.Mutex
	var pushed []events.Alert
	ss.OnAlert(func(a events.Alert) {
		mu.Lock()
		pushed = append(pushed, a)
		mu.Unlock()
	})
	// Sequential time-ordered feed: gap closing order is deterministic,
	// so the fired alerts compare exactly.
	for _, s := range interleave(fleet) {
		ss.Stage(int(stream.ShardOf(uint64(s.MMSI), ss.Len()))).Append(s)
	}

	gj, _ := json.Marshal(pushed)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("online alerts diverged from the offline sweep:\n%s\n%s", gj, wj)
	}
	if ss.RendezvousCount() != int64(len(want)) {
		t.Fatalf("RendezvousCount %d, want %d", ss.RendezvousCount(), len(want))
	}
	if ss.GapCount() != 2 {
		t.Fatalf("GapCount %d, want 2", ss.GapCount())
	}
}

// BenchmarkAnomalyStage measures the per-record fold cost on the ingest
// hot path — the overhead a -anomaly daemon pays per archived record.
func BenchmarkAnomalyStage(b *testing.B) {
	var pts []model.VesselState
	leg(&pts, 201000001, t0, 2048, 42.0, 5.0, 12, 45)
	ss := NewStages(1, Config{})
	st := ss.Stage(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(pts[i%len(pts)])
	}
}
