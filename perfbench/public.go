package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/trace"
	"time"

	"nifdy/internal/check"
	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/traffic"
)

// signature is the simulated outcome of one run: everything a repeat at the
// same seed, or a traced run, must reproduce exactly.
type signature struct {
	delivered int64
	// stats are the summed NIC counters (zero on injector workloads).
	stats nic.Stats
}

// timing is the host cost of one run.
type timing struct {
	setup, wall time.Duration
	// heap is the live heap after the run, before the simulation is freed
	// (0 where the entry point frees it before returning).
	heap uint64
	// alloc is the bytes allocated during the run phase.
	alloc uint64
}

// buildOpts is the harness.Build configuration of a processor-driven
// workload: NIFDY NICs at the fabric's Table 3 parameters.
func buildOpts(w workload, seed uint64) harness.BuildOpts {
	gen := traffic.NewGen(w.traffic(w.nodes, seed), nil)
	return harness.BuildOpts{
		Net: w.net(), Kind: harness.NIFDY, Seed: seed,
		EngineShards: w.shards, Program: gen.Program,
	}
}

// runPublic runs w once through the entry points users call: harness.Build
// plus Engine.Run, or harness.ScaleBench. With monitors set, the harness's
// invariant monitors run alongside (an untimed correctness pass); any
// violation is returned as an error.
func runPublic(ctx context.Context, w workload, seed uint64, monitors bool) (signature, timing, error) {
	runtime.GC()
	if w.scale() {
		var r harness.ScaleResult
		start := time.Now()
		trace.WithRegion(ctx, "scalebench", func() {
			r = harness.ScaleBench(w.net(), harness.ScaleOpts{Cycles: w.cycles, Seed: seed, Shards: w.shards})
		})
		total := time.Since(start)
		if r.Nodes != w.nodes || r.Shards != w.shards {
			return signature{}, timing{}, fmt.Errorf("ScaleBench ran %d nodes at %d shards, want %d at %d",
				r.Nodes, r.Shards, w.nodes, w.shards)
		}
		wall := time.Duration(r.WallNS)
		return signature{delivered: r.Delivered}, timing{setup: total - wall, wall: wall}, nil
	}
	opts := buildOpts(w, seed)
	var violations []check.Violation
	if monitors {
		opts.Check = &check.Options{
			Interval: 256, Sequence: true, InOrder: true,
			OnViolation: func(v check.Violation) { violations = append(violations, v) },
		}
	}
	s, setup := timedBuild(ctx, opts)
	defer s.Close()
	if s.Net.Nodes() != w.nodes {
		return signature{}, timing{}, fmt.Errorf("built %d nodes, want %d", s.Net.Nodes(), w.nodes)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	trace.WithRegion(ctx, "run", func() { s.Eng.Run(w.cycles) })
	wall := time.Since(start)
	tm := timing{setup: setup, wall: wall}
	tm.heap, tm.alloc = heapAfter(&before)
	runtime.KeepAlive(s)
	st := s.AggregateStats()
	if len(violations) > 0 {
		return signature{}, tm, fmt.Errorf("%d invariant violations, first: %v", len(violations), violations[0])
	}
	return signature{delivered: st.Accepted, stats: st}, tm, nil
}

func timedBuild(ctx context.Context, opts harness.BuildOpts) (*harness.Sim, time.Duration) {
	var s *harness.Sim
	start := time.Now()
	trace.WithRegion(ctx, "setup", func() { s = harness.Build(opts) })
	return s, time.Since(start)
}

// setupPublic builds w through harness.Build and closes it unrun,
// returning the build time. The timed build starts from a collected heap
// whose pages an identical untimed build has just touched, so that it pays
// neither for collecting an earlier build's garbage nor for faulting in
// pages the runtime happened to return to the OS.
func setupPublic(ctx context.Context, w workload, seed uint64) time.Duration {
	var setup time.Duration
	for i := 0; i < 2; i++ {
		runtime.GC()
		var s *harness.Sim
		s, setup = timedBuild(ctx, buildOpts(w, seed))
		s.Close()
	}
	return setup
}

// heapAfter collects garbage and reports the live heap and the bytes
// allocated since before was read.
func heapAfter(before *runtime.MemStats) (heap, alloc uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	alloc = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc, alloc
}
