// Command benchrunner regenerates every experiment of the reproduction
// (E1–E22, internal/experiments) and prints the paper-style tables EXPERIMENTS.md records. It
// also emits a machine-readable BENCH_<n>.json next to the working
// directory's previous ones (auto-numbered), so the repository accumulates
// a perf trajectory across PRs; disable with -json off or redirect with
// -json PATH.
//
// Usage:
//
//	benchrunner               # run everything, write BENCH_<n>.json
//	benchrunner -only E2,E9   # run a subset
//	benchrunner -json off     # skip the JSON record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchDoc is the schema of a BENCH_<n>.json perf-trajectory record.
type benchDoc struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Seed        int64        `json:"seed"`
	Experiments []benchEntry `json:"experiments"`
}

type benchEntry struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Cols      []string   `json:"cols"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default all)")
	seed := flag.Int64("seed", 42, "master seed")
	jsonOut := flag.String("json", "auto", `perf record: "auto" (next BENCH_<n>.json), "off", or a path`)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	doc := benchDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
	}
	run := func(id string, fn func() experiments.Table) {
		if len(want) > 0 && !want[id] {
			return
		}
		start := time.Now()
		t := fn()
		elapsed := time.Since(start)
		fmt.Println(t.Format())
		fmt.Printf("(%s in %v)\n\n", id, elapsed.Round(time.Millisecond))
		doc.Experiments = append(doc.Experiments, benchEntry{
			ID: t.ID, Title: t.Title, Cols: t.Cols, Rows: t.Rows, Notes: t.Notes,
			ElapsedMS: elapsed.Milliseconds(),
		})
	}
	run("E1", func() experiments.Table { return experiments.E1(*seed, 400, 40*time.Minute) })
	run("E2", func() experiments.Table { return experiments.E2(*seed) })
	run("E3", func() experiments.Table { return experiments.E3(*seed) })
	run("E4", func() experiments.Table { return experiments.E4(*seed) })
	run("E5", func() experiments.Table { return experiments.E5(*seed, []int{1, 2, 4, 8}) })
	run("E6", func() experiments.Table { return experiments.E6(*seed) })
	run("E7", func() experiments.Table { return experiments.E7(*seed) })
	run("E8", func() experiments.Table { return experiments.E8(*seed) })
	run("E9", func() experiments.Table { return experiments.E9(*seed) })
	run("E10", func() experiments.Table { return experiments.E10(*seed) })
	run("E11", func() experiments.Table { return experiments.E11(*seed, 200000) })
	run("E12", func() experiments.Table { return experiments.E12(*seed, 1000) })
	run("E13", func() experiments.Table { return experiments.E13(*seed) })
	run("E14", func() experiments.Table { return experiments.E14(*seed, []int{1, 2, 4, 8}) })
	run("E15", func() experiments.Table { return experiments.E15(*seed) })
	run("E16", func() experiments.Table { return experiments.E16(*seed) })
	run("E17", func() experiments.Table { return experiments.E17(*seed) })
	run("E18", func() experiments.Table { return experiments.E18(*seed) })
	run("E19", func() experiments.Table { return experiments.E19(*seed) })
	run("E20", func() experiments.Table { return experiments.E20(*seed) })
	run("E21", func() experiments.Table { return experiments.E21(*seed) })
	run("E22", func() experiments.Table { return experiments.E22(*seed) })

	if *jsonOut == "off" || *jsonOut == "" {
		return
	}
	path := *jsonOut
	if path == "auto" && len(want) > 0 {
		// A -only subset is not comparable with the full-run trajectory;
		// don't pollute the auto-numbered series with it.
		fmt.Println("perf record skipped for -only subset (pass -json PATH to force)")
		return
	}
	if path == "auto" {
		n := 1
		for {
			path = fmt.Sprintf("BENCH_%d.json", n)
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			}
			n++
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: encoding perf record:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: writing perf record:", err)
		os.Exit(1)
	}
	fmt.Printf("perf record → %s\n", path)
}
