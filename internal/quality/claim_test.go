package quality

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestStaticErrorRateClaim holds EXPERIMENTS.md's E3 claim (§1 [44]) at a
// second fleet and seed: about 5 % of AIS static transmissions carry errors,
// and the rule set recovers that rate from the feed alone. Seed 7, 150
// vessels × 3 h at a 2 s tick, 5 % injected, measured 4.8 %. Tolerance: the
// flagged share within 5 % ± 2 points — so a rule set that flags nothing, or
// flags clean messages wholesale, fails.
func TestStaticErrorRateClaim(t *testing.T) {
	run, err := sim.Simulate(sim.Config{
		Seed: 7, NumVessels: 150, Duration: 3 * time.Hour, TickSec: 2,
		StaticErrorRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Statics) == 0 {
		t.Fatal("no static traffic")
	}
	flagged := 0
	for i := range run.Statics {
		if len(CheckStatic(&run.Statics[i].Msg)) > 0 {
			flagged++
		}
	}
	rate := float64(flagged) / float64(len(run.Statics))
	t.Logf("statics %d, estimated error rate %.1f%%", len(run.Statics), 100*rate)
	if rate < 0.03 || rate > 0.07 {
		t.Errorf("estimated rate %.1f%% not near 5%%", 100*rate)
	}
}
