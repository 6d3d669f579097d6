package main

import (
	"context"
	"fmt"
	"runtime/trace"
	"time"

	"nifdy/internal/core"
	"nifdy/internal/harness"
	"nifdy/internal/nic"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/rng"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
	"nifdy/internal/traffic"
)

// assembly is a workload wired by the benchmark itself from the public
// constructors harness.Build and harness.ScaleBench use, so that it can
// observe what those entry points keep inside: per-packet end-to-end
// latency, executed engine steps and, when traced, per-layer time and
// counts. Its simulated counters must equal the entry point's.
type assembly struct {
	w     workload
	eng   *sim.Engine
	net   topo.Network
	nics  []nic.NIC
	procs []*node.Proc
	inj   []injector
	// lat is the end-to-end latency histogram, one per shard so that
	// shards never share a writer.
	lat []hist
	// steps counts executed engine steps (fast-forwarded cycles are not
	// steps); the bracket hooks count them without pinning the engine.
	steps int64
	// clock is the bracket hooks' clock: never due, so the hooks never
	// stop the engine from fast-forwarding.
	clock sim.Activity
	tr    *tracer
}

// newAssembly wires w. With traced set, every router.Port, NIC and
// processor is wrapped in a timing shim and the engine gets marker hooks.
func newAssembly(w workload, seed uint64, traced bool) (*assembly, error) {
	spec := w.net()
	a := &assembly{w: w, lat: make([]hist, w.shards)}
	a.clock.Sleep(sim.Never)
	a.net = spec.Build(seed, topo.IfaceOptions{Seed: seed})
	if n := a.net.Nodes(); n != w.nodes {
		return nil, fmt.Errorf("built %d nodes, want %d", n, w.nodes)
	}
	if w.shards > 1 {
		a.eng = sim.NewParallel(w.shards)
	} else {
		a.eng = sim.New()
	}
	shardOf := a.net.Partition(w.shards)
	if traced {
		a.tr = newTracer(w, a.net)
		if w.shards > 1 {
			for sh := 0; sh < w.shards; sh++ {
				a.eng.RegisterSharded(sh, marker{&a.tr.shards[sh].head})
			}
		}
	}
	// The bracket hooks sit on either side of whatever step hooks the
	// fabric registers (the flow solver), so the time between them is the
	// solver's.
	a.eng.RegisterStepHookClocked(a.headHook, &a.clock)
	a.net.RegisterRoutersSharded(a.eng, shardOf)
	a.eng.RegisterStepHookClocked(a.tailHook, &a.clock)
	if w.scale() {
		a.wireInjectors(seed, shardOf)
	} else {
		a.wireNodes(seed, spec, shardOf)
	}
	if traced && w.shards > 1 {
		for sh := 0; sh < w.shards; sh++ {
			a.eng.RegisterSharded(sh, marker{&a.tr.shards[sh].tail})
		}
	}
	return a, nil
}

// port returns node n's fabric port, wrapped when tracing.
func (a *assembly) port(n, sh int) router.Port {
	pt := a.net.Iface(n)
	if a.tr != nil {
		return &portShim{Port: pt, st: a.tr.shards[sh]}
	}
	return pt
}

// wireNodes mirrors harness.Build for the NIFDY kind: one NIFDY unit per
// node at the fabric's Table 3 parameters, then one processor per node
// running the traffic generator's program, each in its node's shard.
func (a *assembly) wireNodes(seed uint64, spec harness.NetSpec, shardOf []int) {
	for n := 0; n < a.w.nodes; n++ {
		sh := shardOf[n]
		lat := &a.lat[sh]
		cfg := spec.Params
		cfg.Node = n
		cfg.IDs = packet.NewNodeIDs(n)
		cfg.Hooks = nic.Hooks{OnAccept: func(p *packet.Packet) { lat.add(p.AcceptedAt - p.CreatedAt) }}
		u := core.New(cfg, a.port(n, sh))
		var nc nic.NIC = u
		if a.tr != nil {
			nc = &nicShim{NIFDY: u, st: a.tr.shards[sh]}
		}
		a.eng.RegisterSharded(sh, nc)
		a.nics = append(a.nics, nc)
	}
	gen := traffic.NewGen(a.w.traffic(a.w.nodes, seed), nil)
	for n := 0; n < a.w.nodes; n++ {
		p := node.NewProc(n, a.nics[n], node.CM5Costs(), gen.Program(n))
		var t sim.Ticker = p
		if a.tr != nil {
			t = &procShim{Proc: p, st: a.tr.shards[shardOf[n]]}
		}
		a.eng.RegisterSharded(shardOf[n], t)
		a.procs = append(a.procs, p)
		p.Start()
	}
}

// wireInjectors mirrors harness.ScaleBench: one saturated injector per
// node with a fixed packet pool and the same per-node random streams.
func (a *assembly) wireInjectors(seed uint64, shardOf []int) {
	const poolPerNode = 4
	nodes := a.w.nodes
	a.inj = make([]injector, nodes)
	pkts := make([]packet.Packet, nodes*poolPerNode)
	for n := 0; n < nodes; n++ {
		sh := shardOf[n]
		in := &a.inj[n]
		in.pt = a.port(n, sh)
		in.node, in.nodes = n, nodes
		in.r = rng.NewStream(seed^0x5CA1E, uint64(n))
		in.ids = packet.NewNodeIDs(n)
		in.pool = make([]*packet.Packet, poolPerNode)
		in.cnt = poolPerNode
		for i := range in.pool {
			in.pool[i] = &pkts[n*poolPerNode+i]
		}
		in.lat = &a.lat[sh]
		if a.tr != nil {
			in.st = a.tr.shards[sh]
		}
		a.eng.RegisterSharded(sh, in)
	}
}

func (a *assembly) headHook(now sim.Cycle) {
	a.steps++
	if a.tr != nil {
		a.tr.head(now)
	}
}

func (a *assembly) tailHook(sim.Cycle) {
	if a.tr != nil {
		a.tr.tail()
	}
}

// run executes the workload's cycle budget and returns its wall time.
func (a *assembly) run(ctx context.Context) time.Duration {
	if a.tr != nil {
		a.tr.begin()
	}
	start := time.Now()
	trace.WithRegion(ctx, "run", func() { a.eng.Run(a.w.cycles) })
	wall := time.Since(start)
	if a.tr != nil {
		a.tr.end(wall)
	}
	return wall
}

func (a *assembly) close() {
	for _, p := range a.procs {
		p.Stop()
	}
	a.eng.Close()
}

func (a *assembly) signature() signature {
	if a.w.scale() {
		var d int64
		for i := range a.inj {
			d += a.inj[i].delivered
		}
		return signature{delivered: d}
	}
	st := (&harness.Sim{NICs: a.nics}).AggregateStats()
	return signature{delivered: st.Accepted, stats: st}
}

// latency merges the per-shard end-to-end latency histograms.
func (a *assembly) latency() *hist {
	var h hist
	for i := range a.lat {
		h.merge(&a.lat[i])
	}
	return &h
}

// injector is harness.ScaleBench's saturated traffic source, plus the
// send-cycle stamp (CreatedAt, which no fabric reads) and a latency
// record at delivery.
type injector struct {
	pt        router.Port
	node      int
	nodes     int
	r         *rng.Source
	ids       *packet.IDSource
	pool      []*packet.Packet
	head, cnt int
	delivered int64
	lat       *hist
	st        *shardTrace
}

func (in *injector) Tick(now sim.Cycle) {
	if in.st == nil {
		in.tick(now)
		return
	}
	m := in.st.enter()
	in.tick(now)
	in.st.exit(lInject, m)
}

func (in *injector) tick(now sim.Cycle) {
	progress := in.pt.Pump(now)
	for {
		p, ok := in.pt.Deliver(now, nil)
		if !ok {
			break
		}
		in.delivered++
		in.lat.add(now - p.CreatedAt)
		if in.cnt < len(in.pool) {
			in.pool[(in.head+in.cnt)%len(in.pool)] = p
			in.cnt++
		}
		progress = true
	}
	for in.cnt > 0 && in.pt.CanAccept(packet.Request) {
		p := in.pool[in.head]
		in.head = (in.head + 1) % len(in.pool)
		in.cnt--
		dst := in.r.Intn(in.nodes - 1)
		if dst >= in.node {
			dst++
		}
		*p = packet.Packet{ID: in.ids.Next(), Src: in.node, Dst: dst,
			Words: 8, Class: packet.Request, Kind: packet.Data, CreatedAt: now}
		in.pt.StartSend(now, p)
		progress = true
	}
	if in.pt.Quiet() {
		in.pt.Activity().Sleep(in.pt.NextArrivalAt())
	} else if !progress {
		in.pt.Activity().Sleep(in.pt.BlockedBound(now))
	}
}

func (in *injector) Activity() *sim.Activity { return in.pt.Activity() }
