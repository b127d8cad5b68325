package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toyScale runs the whole harness in seconds: 200 vessels × 5 min.
var toyScale = scale{vessels: 200, minutes: 5, traceLines: 1500, budget: "16KiB", ladderStep: 500 * time.Millisecond}

const toySeconds = 2

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts got carries exactly the names want lists, each once,
// each finite, each well-formed and with the declared unit.
func checkNames(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range got {
		if seen[m.name] {
			t.Errorf("%s: %s emitted twice", what, m.name)
		}
		seen[m.name] = true
		if !nameRE.MatchString(m.name) {
			t.Errorf("%s: malformed metric name %q", what, m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", what, m.name, m.value)
		}
		unit, ok := want[m.name]
		if !ok {
			t.Errorf("%s: %s is not in BENCHMARK.json", what, m.name)
		} else if unit != m.unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.name, m.unit, unit)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, name)
		}
	}
}

// leftovers lists the work directories under the build directory and the
// live processes whose command line mentions it (the daemon binary lives
// under it). The build directory is the test's own, so whatever else runs
// on the box, or ran and was killed, does not show here.
func leftovers(t *testing.T, build string) (work, procs []string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(build, "work"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		work = append(work, e.Name())
	}
	pids, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		if cmd, err := os.ReadFile(p); err == nil && bytes.Contains(cmd, []byte(build)) {
			procs = append(procs, p+": "+strings.ReplaceAll(string(cmd), "\x00", " "))
		}
	}
	return work, procs
}

// TestHarnessSmoke runs every workload at toy scale against the real
// daemon binary and holds the output to BENCHMARK.json: every end-to-end
// metric once per workload, every per-layer metric once per traced run.
// -short keeps one end-to-end and one traced workload.
func TestHarnessSmoke(t *testing.T) {
	// The harness builds ./cmd/maritimed from the checkout root; the test
	// keeps the binary and the work directories in a directory of its own.
	at := dirs{root: "..", build: t.TempDir()}
	bf, err := readBenchmarkFile(at.root)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := make(map[string]string), make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the bench's is %q", i, w.Name, workloadNames[i])
		}
	}

	ctx := context.Background()
	workloads, traced := workloadNames, []string{wReplayMax, wQueryEvicted}
	if testing.Short() {
		workloads, traced = []string{wLivePaced}, []string{wQueryEvicted}
	}
	for _, w := range workloads {
		o, err := measure(ctx, at, toyScale, w, 1, toySeconds, false, "")
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkNames(t, w, o.e2e, e2e)
		if o.attempted < 1 || o.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w, o.attempted, o.failed)
		}
	}
	out := t.TempDir()
	for _, w := range traced {
		o, err := measure(ctx, at, toyScale, w, 1, toySeconds, true, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		checkNames(t, w+" traced", o.layer, layer)
		if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
			t.Errorf("%s traced: %v", w, err)
		}
	}
	if work, procs := leftovers(t, at.build); len(work) != 0 || len(procs) != 0 {
		t.Errorf("after clean runs: work directories %v, processes %v left behind", work, procs)
	}

	// A failed reference check must fail the run and still reap the daemon
	// and remove the work directory.
	su, err := newSuite(ctx, at, toyScale, 1, toySeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := su.prepare(ctx, wLivePaced)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.feed.ref {
		p.feed.ref[i].archived++ // a reference no daemon can match
	}
	_, _, _, err = su.runPrepared(ctx, wLivePaced, p)
	if err == nil || !strings.Contains(err.Error(), "check failed") {
		t.Errorf("tampered reference: got %v, want a failed check", err)
	}
	if err := su.close(); err != nil {
		t.Fatal(err)
	}
	if work, procs := leftovers(t, at.build); len(work) != 0 || len(procs) != 0 {
		t.Errorf("after a failed check: work directories %v, processes %v left behind", work, procs)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
