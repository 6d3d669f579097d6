package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/trace"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session is one benchmark invocation: a workload at a seed. It counts the
// simulations it runs and fails any whose simulated outcome differs from
// the first one's, or that breaks a sanity check.
type session struct {
	ctx       context.Context
	w         workload
	seed      uint64
	seconds   time.Duration
	attempted int
	failed    int
	problems  []string
	ref       *signature
	refLat    *hist
	refSteps  int64
	// samples are the per-run host times behind each reported median.
	samples map[string][]float64
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// record counts one simulation and checks its outcome against the first.
func (s *session) record(what string, sig signature, err error) {
	s.attempted++
	if err != nil {
		s.fail("%s: %v", what, err)
		return
	}
	if msg := sane(sig); msg != "" {
		s.fail("%s: %s", what, msg)
		return
	}
	if s.ref == nil {
		s.ref = &sig
		return
	}
	if sig != *s.ref {
		s.fail("%s: outcome %+v differs from %+v", what, sig, *s.ref)
	}
}

// recordAssembly additionally checks the assembly's latency histogram and,
// where no shard markers pin the engine, its executed step count.
func (s *session) recordAssembly(what string, a *assembly, err error) {
	if err != nil {
		s.record(what, signature{}, err)
		return
	}
	before := s.failed
	s.record(what, a.signature(), nil)
	if s.failed != before {
		return
	}
	lat := a.latency()
	switch {
	case lat.n == 0 || lat.quantile(0.5) <= 0:
		s.fail("%s: no positive end-to-end latency recorded", what)
	case s.refLat == nil:
		s.refLat, s.refSteps = lat, a.steps
	case !lat.equal(s.refLat):
		s.fail("%s: latency distribution differs from the first run's", what)
	case (a.tr == nil || !a.tr.markers) && a.steps != s.refSteps:
		s.fail("%s: executed %d steps, first run executed %d", what, a.steps, s.refSteps)
	}
}

// sane checks the invariants any correct run satisfies at a budget cut:
// something was delivered, and nothing was accepted that was not injected,
// nor injected that was not sent, nor acknowledged that was not acked.
func sane(sig signature) string {
	st := sig.stats
	switch {
	case sig.delivered <= 0:
		return "no packets delivered"
	case st.Sent != 0 && !(st.Accepted <= st.Injected && st.Injected <= st.Sent):
		return fmt.Sprintf("counters out of order: sent %d, injected %d, accepted %d", st.Sent, st.Injected, st.Accepted)
	case st.AcksReceived > st.AcksSent:
		return fmt.Sprintf("%d acks received but only %d sent", st.AcksReceived, st.AcksSent)
	}
	return ""
}

// runAssembly builds and runs the benchmark's own assembly of the
// workload; the caller closes it.
func (s *session) runAssembly(traced bool) (*assembly, timing, error) {
	runtime.GC()
	var a *assembly
	var err error
	start := time.Now()
	trace.WithRegion(s.ctx, "setup", func() { a, err = newAssembly(s.w, s.seed, traced) })
	if err != nil {
		return nil, timing{}, err
	}
	tm := timing{setup: time.Since(start)}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	tm.wall = a.run(s.ctx)
	tm.heap, tm.alloc = heapAfter(&before)
	return a, tm, nil
}

// endToEnd measures the end-to-end metrics: a warm-up run of the
// benchmark's assembly gives the latency distribution (and the heap of
// injector workloads, whose entry point frees its simulation), one
// monitored run checks the harness's invariants, then the public entry
// point is timed repeatedly for the session's duration.
func (s *session) endToEnd() map[string]metric {
	a, probe, err := s.runAssembly(false)
	s.recordAssembly("assembly run", a, err)
	if err != nil {
		return nil
	}
	a.close()
	lat := a.latency()
	if !s.w.scale() {
		sig, _, err := runPublic(s.ctx, s.w, s.seed, true)
		s.record("monitored run", sig, err)
	}
	// setup_s: a Build takes under a millisecond, so it is sampled from
	// builds that are closed unrun, a few before every timed run so that
	// the samples span the whole session as the run times do; a ScaleBench
	// setup (tens of milliseconds) is taken from the timed runs.
	// Every host time is scaled by the reference walk timed right after
	// its run (see calib.go).
	const setupsPerRun = 8
	ref, err := newReference()
	if err != nil {
		s.fail("%v", err)
		return nil
	}
	defer ref.close()
	ref.time()
	var setups, walls, rawSetups, rawWalls, refs []time.Duration
	var heaps []float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < s.seconds {
		var runSetups []time.Duration
		for i := 0; i < setupsPerRun && !s.w.scale(); i++ {
			runSetups = append(runSetups, setupPublic(s.ctx, s.w, s.seed))
		}
		sig, tm, err := runPublic(s.ctx, s.w, s.seed, false)
		s.record(fmt.Sprintf("run %d", len(walls)+1), sig, err)
		if err != nil {
			break
		}
		r := ref.time()
		if s.w.scale() {
			runSetups = append(runSetups, tm.setup)
		}
		for _, d := range runSetups {
			setups = append(setups, scaled(d, r))
		}
		rawSetups = append(rawSetups, runSetups...)
		walls = append(walls, scaled(tm.wall, r))
		rawWalls = append(rawWalls, tm.wall)
		refs = append(refs, r)
		heaps = append(heaps, float64(tm.heap))
	}
	if s.ref == nil || len(walls) == 0 {
		return nil
	}
	heap := median(heaps)
	if s.w.scale() {
		heap = float64(probe.heap)
	}
	wall := medianDur(walls)
	s.samples = map[string][]float64{
		"setup_s": seconds(setups), "wall_s": seconds(walls),
		"raw_setup_s": seconds(rawSetups), "raw_wall_s": seconds(rawWalls), "ref_s": seconds(refs),
	}
	return map[string]metric{
		"setup_s":              {medianDur(setups), "s"},
		"wall_s":               {wall, "s"},
		"delivered_pkts_per_s": {ratio(float64(s.ref.delivered), wall), "1/s"},
		"heap_mb":              {heap / (1 << 20), "MiB"},
		"delivered_pkts":       {float64(s.ref.delivered), "count"},
		"latency_p50_cycles":   {float64(lat.quantile(0.50)), "cycles"},
		"latency_p99_cycles":   {float64(lat.quantile(0.99)), "cycles"},
	}
}

// perLayer measures the per-layer metrics: each round runs the public
// entry point, the untraced assembly and the traced assembly, all of which
// must agree; the metrics are medians over the rounds. The last round's
// trace is returned for export.
func (s *session) perLayer() (map[string]metric, *tracer) {
	ref, err := newReference()
	if err != nil {
		s.fail("%v", err)
		return nil, nil
	}
	defer ref.close()
	var rounds []map[string]metric
	var last *tracer
	start := time.Now()
	for len(rounds) < 1 || time.Since(start) < s.seconds {
		sig, _, err := runPublic(s.ctx, s.w, s.seed, false)
		s.record("public run", sig, err)
		probe, ptm, err := s.runAssembly(false)
		s.recordAssembly("untraced assembly", probe, err)
		if err != nil {
			break
		}
		probe.close()
		traced, ttm, err := s.runAssembly(true)
		s.recordAssembly("traced assembly", traced, err)
		if err != nil {
			break
		}
		traced.close()
		round := layerMetrics(s.w, probe, ptm, traced, ttm)
		round["host.ref_s"] = metric{ref.time().Seconds(), "s"}
		rounds = append(rounds, round)
		last = traced.tr
	}
	if s.ref == nil || len(rounds) == 0 {
		return nil, nil
	}
	out := map[string]metric{}
	s.samples = map[string][]float64{}
	for name, m := range rounds[0] {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[name].Value
		}
		out[name] = metric{median(vals), m.Unit}
		if m.Unit == "s" {
			s.samples[name] = vals
		}
	}
	return out, last
}

// layerMetrics derives one round's per-layer metrics. Layers a workload
// bypasses report 0, as do ratios whose base is 0; every ratio is reported
// next to its base.
func layerMetrics(w workload, probe *assembly, ptm timing, traced *assembly, ttm timing) map[string]metric {
	tr := traced.tr
	m := tr.merged()
	sig := traced.signature()
	st := sig.stats
	budget := float64(w.cycles)
	shards := float64(w.shards)
	var selfSum time.Duration
	for l := range m.self {
		selfSum += m.self[l]
	}
	residual := ttm.wall - tr.hooks - tr.flowStep - time.Duration(float64(selfSum)/shards)
	sec := func(d time.Duration) metric { return metric{d.Seconds(), "s"} }
	count := func(n int64) metric { return metric{float64(n), "count"} }
	share := func(a, b int64) metric { return metric{ratio(float64(a), float64(b)), "ratio"} }
	cycles := func(v int64) metric { return metric{float64(v), "cycles"} }
	return map[string]metric{
		"sim.budget_cycles":          count(int64(w.cycles)),
		"sim.executed_cycles":        count(traced.steps),
		"sim.skipped_cycle_share":    {1 - float64(traced.steps)/budget, "ratio"},
		"sim.routers":                {ratio(float64(tr.routers), float64(tr.samples)), "count"},
		"sim.awake_routers_mean":     {ratio(float64(tr.awake), float64(tr.samples)), "count"},
		"sim.residual_s":             sec(residual),
		"sim.ns_per_executed_cycle":  {ratio(float64(ptm.wall.Nanoseconds()), float64(probe.steps)), "ns"},
		"sim.alloc_bytes_per_kcycle": {float64(ptm.alloc) / (budget / 1000), "B"},
		"sim.shard_tick_s":           sec(time.Duration(float64(tr.shardTick) / shards)),
		"sim.barrier_wait_s":         sec(time.Duration(float64(tr.barrierWait) / shards)),
		"sim.flush_s":                sec(tr.fl),

		"node.tick_s":                 sec(m.self[lNode]),
		"node.ticks":                  count(m.calls[lNode]),
		"node.ns_per_tick":            {ratio(float64(m.self[lNode].Nanoseconds()), float64(m.calls[lNode])), "ns"},
		"node.accepted_pkts":          count(m.recvHit),
		"node.accept_wait_p99_cycles": cycles(m.acceptWait.quantile(0.99)),

		"core.tick_s":                 sec(m.self[lCoreTick]),
		"core.ticks":                  count(m.calls[lCoreTick]),
		"core.trysend_s":              sec(m.self[lCoreSend]),
		"core.recv_s":                 sec(m.self[lCoreRecv]),
		"core.trysend_calls":          count(m.calls[lCoreSend]),
		"core.trysend_accepted_share": share(m.sendOK, m.calls[lCoreSend]),
		"core.recv_calls":             count(m.calls[lCoreRecv]),
		"core.acks_sent":              count(st.AcksSent),
		"core.acks_per_delivered":     share(st.AcksSent, st.Accepted),
		"core.bulk_requests":          count(st.BulkGrants + st.BulkRejects),
		"core.bulk_grant_share":       share(st.BulkGrants, st.BulkGrants+st.BulkRejects),
		"core.source_wait_p99_cycles": cycles(m.sourceWait.quantile(0.99)),

		"router.port_s":                    sec(m.self[lPort]),
		"router.pump_calls":                count(m.pumps),
		"router.buffered_flits_mean":       {ratio(float64(m.buffered), float64(m.pumps)), "count"},
		"router.deliver_calls":             count(m.delivers),
		"router.deliver_hit_share":         share(m.deliverHit, m.delivers),
		"router.delivered_pkts":            count(m.deliverHit),
		"router.fabric_latency_p50_cycles": cycles(m.fabricLat.quantile(0.50)),
		"router.fabric_latency_p99_cycles": cycles(m.fabricLat.quantile(0.99)),

		"flow.step_s":               sec(tr.flowStep),
		"flow.ns_per_delivered_pkt": {ratio(float64(tr.flowStep.Nanoseconds()), float64(sig.delivered)), "ns"},

		"inject.tick_s": sec(m.self[lInject]),

		"trace.overhead_share":  {ttm.wall.Seconds()/ptm.wall.Seconds() - 1, "ratio"},
		"trace.untraced_wall_s": sec(ptm.wall),
		"trace.traced_wall_s":   sec(ttm.wall),
	}
}
