package fusion

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// TestRadarFusionClaim holds EXPERIMENTS.md's E6 claim (§2.4 [19]): fusing
// anonymous radar contacts into the AIS track picture keeps the tracks at
// least as accurate as AIS alone, and the radar contacts land on the right
// vessel. Seed 42, 50 vessels × 1 h, four 60 km radars with 120 m noise,
// measurements batched into 10 s scans; measured: confirmed-track RMSE
// against sim truth 488 m fused vs 480 m AIS-only, radar→track association
// 100 %. Tolerances: fused RMSE ≤ 1.05 × AIS-only, association ≥ 0.95 —
// so a tracker that assigns contacts without its Mahalanobis gate fails.
func TestRadarFusionClaim(t *testing.T) {
	run, err := sim.Simulate(sim.Config{
		Seed: 42, NumVessels: 50, Duration: time.Hour, TickSec: 2,
		RadarRangeM: 60000, NumRadar: 4, RadarNoiseM: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	type scan struct {
		at    time.Time
		ms    []Measurement
		truth []uint32
	}
	scans := func(withRadar bool) []scan {
		type timed struct {
			m     Measurement
			truth uint32
		}
		var feed []timed
		for i := range run.Positions {
			o := &run.Positions[i]
			feed = append(feed, timed{Measurement{
				At: o.At, Pos: o.Report.Position, SigmaM: 10, Identity: o.Report.MMSI, Source: "ais",
			}, o.TrueMMSI})
		}
		if withRadar {
			for _, c := range run.Radar {
				feed = append(feed, timed{Measurement{At: c.At, Pos: c.Pos, SigmaM: 120, Source: "radar"}, c.TrueMMSI})
			}
		}
		sort.SliceStable(feed, func(i, j int) bool { return feed[i].m.At.Before(feed[j].m.At) })
		var out []scan
		var cur scan
		for _, fd := range feed {
			if cur.at.IsZero() || fd.m.At.Sub(cur.at) > 10*time.Second {
				if len(cur.ms) > 0 {
					out = append(out, cur)
				}
				cur = scan{at: fd.m.At}
			}
			cur.ms = append(cur.ms, fd.m)
			cur.truth = append(cur.truth, fd.truth)
		}
		if len(cur.ms) > 0 {
			out = append(out, cur)
		}
		return out
	}
	// truthAt is the vessel's first truth sample within 30 s of at.
	truthAt := func(mmsi uint32, at time.Time) (geo.Point, bool) {
		pts := run.Truth[mmsi]
		i := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(at.Add(-30 * time.Second)) })
		if i < len(pts) && !pts[i].At.After(at.Add(30*time.Second)) {
			return pts[i].Pos, true
		}
		return geo.Point{}, false
	}
	track := func(withRadar bool) (rmse, assoc float64) {
		tk := NewTracker(DefaultTrackerConfig())
		var se, n float64
		var correct, anon int
		for _, sc := range scans(withRadar) {
			tk.Process(sc.at, sc.ms)
			for i, m := range sc.ms {
				if m.Identity != 0 {
					continue
				}
				anon++
				for _, tr := range tk.Tracks {
					if tr.Identity == sc.truth[i] && geo.Distance(tr.Filter.Position(), m.Pos) < 600 {
						correct++
						break
					}
				}
			}
			for _, tr := range tk.ConfirmedTracks() {
				if tr.Identity == 0 {
					continue
				}
				if tp, ok := truthAt(tr.Identity, sc.at); ok {
					d := geo.Distance(tr.Filter.Position(), tp)
					se += d * d
					n++
				}
			}
		}
		if n > 0 {
			rmse = math.Sqrt(se / n)
		}
		if anon > 0 {
			assoc = float64(correct) / float64(anon)
		}
		return rmse, assoc
	}
	rmseAIS, _ := track(false)
	rmseFused, assoc := track(true)
	t.Logf("track RMSE: AIS-only %.0f m, AIS+radar %.0f m; radar→track association %.3f", rmseAIS, rmseFused, assoc)
	if rmseAIS == 0 {
		t.Fatal("no confirmed track was scored against truth")
	}
	if rmseFused > 1.05*rmseAIS {
		t.Errorf("fused RMSE %.0f m above 1.05 × AIS-only %.0f m", rmseFused, rmseAIS)
	}
	if assoc < 0.95 {
		t.Errorf("radar→track association %.3f below 0.95", assoc)
	}
}
