// Command bench is the repository's benchmark. It builds cmd/maritimed,
// generates a seeded AIS feed, drives the real daemon binary from outside
// (stdin pipe + loopback HTTP) through one of four named workloads, checks
// what comes back against an in-process reference, and prints the
// end-to-end metrics; with -trace 1 it records client-side spans, reads the
// daemon's own counters and times the calls into each layer's public
// functions in-process, and prints the per-layer budget instead. See
// README.md.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed reference check exits
// non-zero and prints no metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all four, then one traced run)")
	seed := flag.Int64("seed", 1, "seed of the feed and of every query mix")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "bench/out", "directory the traced run writes trace.json to")
	selfcheck := flag.Int("selfcheck", 0, "run every workload on this many seeds, twice, and fail if any end-to-end metric's spread or median shift exceeds its bound in BENCHMARK.json")
	flag.Parse()
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	// An interrupt cancels the run, which reaps the daemon and removes the
	// work directory on its way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *selfcheck > 0:
		err = selfCheck(ctx, checkoutDirs, *selfcheck, *seed, *seconds)
	case *workload != "":
		err = runOne(ctx, checkoutDirs, fullScale, *workload, *seed, *seconds, *trace == 1, *out, true)
	default:
		for _, w := range workloadNames {
			if err = runOne(ctx, checkoutDirs, fullScale, w, *seed, *seconds, false, *out, false); err != nil {
				break
			}
		}
		if err == nil {
			err = runOne(ctx, checkoutDirs, fullScale, wLivePaced, *seed, *seconds, true, *out, false)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload once and returns what it reports: the
// end-to-end metrics, or on a traced run the per-layer ones.
func measure(ctx context.Context, at dirs, sc scale, workload string, seed int64, seconds int, traced bool, outDir string) (o *outcome, err error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	su, err := newSuite(ctx, at, sc, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := su.close(); err == nil && cerr != nil {
			o, err = nil, fmt.Errorf("removing work directory: %w", cerr)
		}
	}()
	if traced {
		return su.runTraced(ctx, workload, outDir)
	}
	o, _, _, err = su.runWorkload(ctx, workload)
	return o, err
}

// runOne measures one workload and prints every metric by name with its
// unit and sample count, then (when asked) the contract's JSON line.
func runOne(ctx context.Context, at dirs, sc scale, workload string, seed int64, seconds int, traced bool, outDir string, jsonLine bool) error {
	o, err := measure(ctx, at, sc, workload, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	metrics := o.e2e
	if traced {
		metrics = o.layer
	}
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(metrics))}
	fmt.Printf("%s seed %d, %d s window", workload, seed, seconds)
	if traced {
		fmt.Print(", traced")
	}
	fmt.Println()
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, m.name, m.value)
		}
		fmt.Printf("  %-36s %14.4f %-7s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if !jsonLine {
		return nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
