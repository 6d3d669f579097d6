// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed simulated-cycle budget, repeatedly for a given
// number of host seconds, checks that every run reproduces the same
// simulated outcome, and prints the metrics as the last line of its
// standard output:
//
//	perfbench --workload mesh64-heavy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, timing the entry points
// users call (harness.Build plus Engine.Run, or harness.ScaleBench). With
// --trace 1 it runs the benchmark's own assembly of the same workload with
// timing shims on every layer boundary, reports the per-layer metrics, and
// writes the spans and per-layer self times to a JSON file under --out.
// The exit code is 0 only if every check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/trace"
	"sort"
	"time"
)

// hostFacts are recorded with every result.
type hostFacts struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Cycles     int64  `json:"cycles"`
	Shards     int    `json:"shards"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Traced     bool   `json:"traced"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating the workload")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-results", "directory for result and trace files")
	goTrace := flag.String("gotrace", "", "also write a runtime/trace file for go tool trace")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *goTrace != "" {
		stop, err := startGoTrace(*goTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer stop()
	}
	// One processor per engine shard: a serial simulation's processor
	// goroutines then hand off on one P instead of waking a second one.
	runtime.GOMAXPROCS(min(w.shards, runtime.NumCPU()))
	host := hostFacts{
		Workload: w.name, Seed: *seed, Cycles: int64(w.cycles), Shards: w.shards,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Traced: *traced == 1,
	}
	ctx, task := trace.NewTask(context.Background(), w.name)
	s := &session{ctx: ctx, w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var metrics map[string]metric
	var tr *tracer
	if host.Traced {
		metrics, tr = s.perLayer()
	} else {
		metrics = s.endToEnd()
	}
	task.End()
	res := result{Correct: s.failed == 0 && metrics != nil, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
	if err := writeResults(*out, host, res, s, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	for _, p := range s.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	info, _ := json.Marshal(map[string]any{
		"host": host, "failed_runs_share": ratio(float64(s.failed), float64(s.attempted)),
	})
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func startGoTrace(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		trace.Stop()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing go trace:", err)
		}
	}, nil
}

// layerSummary is one layer's totals in the trace export.
type layerSummary struct {
	Layer  string  `json:"layer"`
	Calls  int64   `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// writeResults writes the run's result, with its host facts and any failed
// checks, and for a traced run the span export, under dir.
func writeResults(dir string, host hostFacts, res result, s *session, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", host.Workload, host.Seed))
	mode := "e2e"
	if host.Traced {
		mode = "layers"
	}
	doc := map[string]any{
		"host": host, "result": res, "problems": s.problems, "samples_s": s.samples,
		"failed_runs_share": ratio(float64(res.Failed), float64(res.Attempted)),
	}
	if err := writeJSON(base+"-"+mode+".json", doc); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	m := tr.merged()
	var layers []layerSummary
	for l := layer(0); l < lStep; l++ {
		layers = append(layers, layerSummary{layerNames[l], m.calls[l], m.total[l].Seconds(), m.self[l].Seconds()})
	}
	spans := append(append([]span(nil), tr.stepSpans...), m.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return writeJSON(base+"-trace.json", map[string]any{
		"host": host, "metrics": res.Metrics, "layers": layers,
		"flow_step_s": tr.flowStep.Seconds(), "wall_s": tr.wall.Seconds(), "spans": spans,
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
