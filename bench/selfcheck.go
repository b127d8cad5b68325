package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the bench itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// quartiles are the first, second and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) gives them (the "exclusive" method),
// which is how the bounds in BENCHMARK.json are judged.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	m := len(data)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// selfCheck runs every workload on `seeds` consecutive seeds, twice, and
// judges the two sets as a later change will be judged: each end-to-end
// metric's spread (quartile distance over median; setup_s exempt) must
// stay within its bound in both sets, and the second set's median may not
// be worse than the first's by more than the bound. It prints every
// spread, so the bounds are evidence.
func selfCheck(ctx context.Context, at dirs, seeds int, seed int64, seconds int) error {
	if seeds < 4 {
		return fmt.Errorf("-selfcheck needs at least 4 seeds for quartiles to mean anything, got %d", seeds)
	}
	bf, err := readBenchmarkFile(at.root)
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloadNames {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for k := 0; k < seeds; k++ {
				// Each run starts from a collected heap, as a fresh process
				// would: the previous run's feed must not be swept inside
				// this one's window.
				runtime.GC()
				o, err := measure(ctx, at, fullScale, w, seed+int64(set*seeds+k), seconds, false, "")
				if err != nil {
					return err
				}
				for _, m := range o.e2e {
					sets[set][m.name] = append(sets[set][m.name], m.value)
				}
			}
		}
		fmt.Printf("%s: %d seeds x 2 sets, %d s windows\n", w, seeds, seconds)
		fmt.Printf("  %-22s %12s %9s %9s %9s %7s\n", "metric", "median", "spread A", "spread B", "B vs A", "bound")
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if (m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound)) || worse > m.Bound {
				verdict = "  FAIL"
				failed++
			}
			fmt.Printf("  %-22s %12.4f %8.1f%% %8.1f%% %+8.1f%% %6.0f%%%s\n",
				m.Name, a2, 100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", failed)
	}
	return nil
}
