package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nifdy/internal/sim"
)

// testCycles are short budgets that still deliver packets on every
// workload (the flow mesh's first deliveries land after ~3,000 cycles).
var testCycles = map[string]sim.Cycle{
	"mesh64-heavy":    2_000,
	"cm5-light":       8_000,
	"mesh1024-2shard": 400,
	"flow100k":        3_500,
}

// testSeeds are the default seed and one held out from tuning.
var testSeeds = []uint64{1, 7}

func shortWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.cycles = testCycles[name]
	return w
}

func runAssemblyT(t *testing.T, w workload, seed uint64, traced bool) *assembly {
	t.Helper()
	a, err := newAssembly(w, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.close)
	a.run(context.Background())
	return a
}

// TestAssemblyMatchesEntryPoints checks that the benchmark's assembly, with
// and without timing shims, reproduces the public entry point's simulated
// counters exactly, and that the shims change neither the latency
// distribution nor which cycles the engine executes.
func TestAssemblyMatchesEntryPoints(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range testSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", wl.name, seed), func(t *testing.T) {
				w := shortWorkload(t, wl.name)
				pub, _, err := runPublic(context.Background(), w, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				plain := runAssemblyT(t, w, seed, false)
				traced := runAssemblyT(t, w, seed, true)
				if pub.delivered == 0 {
					t.Fatal("entry point delivered nothing")
				}
				for what, a := range map[string]*assembly{"untraced": plain, "traced": traced} {
					if got := a.signature(); got != pub {
						t.Errorf("%s assembly outcome %+v, entry point %+v", what, got, pub)
					}
				}
				if !plain.latency().equal(traced.latency()) {
					t.Error("traced latency distribution differs from untraced")
				}
				if !traced.tr.markers && traced.steps != plain.steps {
					t.Errorf("traced run executed %d cycles, untraced %d", traced.steps, plain.steps)
				}
			})
		}
	}
}

// TestShardedDeliversSerialCount checks that the 2-shard workload delivers
// exactly what the same simulation delivers on the serial engine.
func TestShardedDeliversSerialCount(t *testing.T) {
	for _, seed := range testSeeds {
		w := shortWorkload(t, "mesh1024-2shard")
		serial := w
		serial.shards = 1
		two, _, err := runPublic(context.Background(), w, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		one, _, err := runPublic(context.Background(), serial, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if two != one {
			t.Errorf("seed %d: 2 shards delivered %+v, 1 shard %+v", seed, two, one)
		}
		if !runAssemblyT(t, w, seed, false).latency().equal(runAssemblyT(t, serial, seed, false).latency()) {
			t.Errorf("seed %d: latency distribution depends on the shard count", seed)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for _, v := range []int64{5, 1, 4, 2, 3} {
		h.add(v)
	}
	for q, want := range map[float64]int64{0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := h.quantile(q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestMismatchFailsRun checks the output check: a run whose outcome differs
// from the first run's is counted as failed.
func TestMismatchFailsRun(t *testing.T) {
	s := &session{}
	s.record("first", signature{delivered: 10}, nil)
	s.record("same", signature{delivered: 10}, nil)
	s.record("different", signature{delivered: 11}, nil)
	s.record("empty", signature{}, nil)
	if s.attempted != 4 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2: %v", s.attempted, s.failed, s.problems)
	}
}

// TestTracedSessionExport runs a short traced session and checks the
// reported layer map and the exported trace file.
func TestTracedSessionExport(t *testing.T) {
	cases := []struct {
		name      string
		nodeLayer bool // node.* and core.* must be present (non-zero)
		skips     bool // some cycles must be fast-forwarded
	}{
		{"cm5-light", true, true},
		{"flow100k", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &session{ctx: context.Background(), w: shortWorkload(t, c.name), seed: 1, seconds: time.Nanosecond}
			metrics, tr := s.perLayer()
			if s.failed != 0 || metrics == nil {
				t.Fatalf("session failed: %v", s.problems)
			}
			for _, pl := range []string{"node.ticks", "core.trysend_calls"} {
				if got := metrics[pl].Value > 0; got != c.nodeLayer {
					t.Errorf("%s = %v, want present=%v", pl, metrics[pl].Value, c.nodeLayer)
				}
			}
			if got := metrics["sim.skipped_cycle_share"].Value > 0; got != c.skips {
				t.Errorf("sim.skipped_cycle_share = %v", metrics["sim.skipped_cycle_share"].Value)
			}
			dir := t.TempDir()
			host := hostFacts{Workload: c.name, Seed: 1, Traced: true}
			res := result{Correct: true, Attempted: s.attempted, Metrics: metrics}
			if err := writeResults(dir, host, res, s, tr); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, c.name+"-seed1-trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Layers []layerSummary `json:"layers"`
				Spans  []span         `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Layers) != int(lStep) || len(doc.Spans) == 0 {
				t.Fatalf("trace export has %d layers and %d spans", len(doc.Layers), len(doc.Spans))
			}
			ids := map[int32]bool{}
			for _, sp := range doc.Spans {
				if ids[sp.ID] {
					t.Fatalf("span ID %d used twice", sp.ID)
				}
				ids[sp.ID] = true
			}
			for _, sp := range doc.Spans {
				if sp.Parent != -1 && !ids[sp.Parent] {
					t.Errorf("span %d (%s) has unknown parent %d", sp.ID, sp.Name, sp.Parent)
				}
			}
		})
	}
}

// TestReferenceWalkIsOneCycle checks that the calibration walk visits every
// slot before it repeats, so its working set is the whole buffer.
func TestReferenceWalkIsOneCycle(t *testing.T) {
	next := make([]uint32, 1000)
	sattolo(next, 0x9E3779B97F4A7C15)
	seen := make([]bool, len(next))
	j := uint32(0)
	for i := range next {
		if seen[j] {
			t.Fatalf("walk returned to slot %d after %d steps", j, i)
		}
		seen[j] = true
		j = next[j]
	}
	if j != 0 {
		t.Fatalf("walk of %d steps ended at slot %d, not back at 0", len(next), j)
	}
	if got := scaled(2*time.Second, 2*refNominal); got != time.Second {
		t.Errorf("scaled = %v on a host twice as slow as the reference, want 1s", got)
	}
}
