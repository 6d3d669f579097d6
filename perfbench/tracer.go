package main

import (
	"time"

	"nifdy/internal/core"
	"nifdy/internal/node"
	"nifdy/internal/packet"
	"nifdy/internal/router"
	"nifdy/internal/sim"
	"nifdy/internal/topo"
)

// layer indexes the timed call boundaries of a traced run.
type layer uint8

const (
	lNode     layer = iota // node.Proc.Tick: the processor goroutine handoff
	lCoreTick              // NIFDY unit Tick
	lCoreSend              // NIFDY unit TrySend
	lCoreRecv              // NIFDY unit Recv
	lPort                  // router.Port Pump, Deliver and StartSend
	lInject                // the saturated injector's Tick
	lStep                  // one executed engine step (span only)
	nLayers
)

var layerNames = [nLayers]string{
	"node.tick", "core.tick", "core.trysend", "core.recv", "router.port", "inject.tick", "sim.step",
}

const (
	// recordSteps is how many executed steps, from the middle of the
	// budget on, keep individual spans.
	recordSteps = 16
	// maxSpans caps the spans one shard keeps.
	maxSpans = 20_000
	// Span IDs are shard<<24 | n for calls and stepIDBase | n for steps.
	stepIDBase = 1 << 30
)

// span is one timed call: start and end are nanoseconds since the run
// began, parent is the enclosing span (-1 for a step).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// shardTrace is one shard's timing and counting state. It is written only
// by the goroutines that run the shard's components, which the engine
// orders strictly (a processor's goroutine runs only inside its Tick).
type shardTrace struct {
	tr    *tracer
	shard int
	// child accumulates the time of calls nested in the open call, so a
	// call's self time is its duration minus its children's.
	child       time.Duration
	total, self [nLayers]time.Duration
	calls       [nLayers]int64
	sendOK      int64
	recvHit     int64
	pumps       int64
	buffered    int64
	delivers    int64
	deliverHit  int64
	fabricLat   hist // DeliveredAt-InjectedAt at the port
	acceptWait  hist // AcceptedAt-DeliveredAt at NIC Recv
	sourceWait  hist // InjectedAt-CreatedAt at NIC Recv
	head, tail  time.Time
	open        []openSpan
	spans       []span
	nextID      int32
}

type openSpan struct{ id, parent int32 }

// mark is an open timed call.
type mark struct {
	start time.Time
	saved time.Duration
	id    int32
}

func (st *shardTrace) enter() mark {
	m := mark{start: time.Now(), saved: st.child, id: -1}
	st.child = 0
	if st.tr.recording && len(st.spans)+len(st.open) < maxSpans {
		parent := st.tr.stepID
		if k := len(st.open); k > 0 {
			parent = st.open[k-1].id
		}
		m.id = int32(st.shard)<<24 | st.nextID
		st.nextID++
		st.open = append(st.open, openSpan{m.id, parent})
	}
	return m
}

func (st *shardTrace) exit(l layer, m mark) {
	end := time.Now()
	d := end.Sub(m.start)
	st.total[l] += d
	st.self[l] += d - st.child
	st.calls[l]++
	st.child = m.saved + d
	if m.id >= 0 {
		o := st.open[len(st.open)-1]
		st.open = st.open[:len(st.open)-1]
		st.spans = append(st.spans, span{ID: o.id, Parent: o.parent, Name: layerNames[l], Shard: st.shard,
			Start: m.start.Sub(st.tr.t0).Nanoseconds(), End: end.Sub(st.tr.t0).Nanoseconds()})
	}
}

// tracer holds a traced run's per-shard state and the engine-level
// measurements taken by the bracket hooks and shard markers.
type tracer struct {
	net    topo.Network
	shards []*shardTrace
	budget sim.Cycle
	t0     time.Time
	wall   time.Duration
	// hookEnd is when the head hook finished; the flow solver's step hook
	// runs between it and the tail hook.
	hookEnd  time.Time
	flowStep time.Duration
	hooks    time.Duration // the head hook's own sampling cost
	// Router wake sampling, one sample per executed step.
	samples, routers, awake int64
	// Shard-phase split (multi-shard runs): dispatch is when the shards
	// were released into the tick phase of the open step.
	markers                    bool
	stepOpen                   bool
	dispatch                   time.Time
	shardTick, barrierWait, fl time.Duration
	recording                  bool
	recorded                   int
	stepID                     int32
	stepStart                  time.Time
	stepSpans                  []span
}

func newTracer(w workload, net topo.Network) *tracer {
	tr := &tracer{net: net, budget: w.cycles, markers: w.shards > 1}
	for sh := 0; sh < w.shards; sh++ {
		tr.shards = append(tr.shards, &shardTrace{tr: tr, shard: sh})
	}
	return tr
}

func (tr *tracer) begin() { tr.t0 = time.Now() }

func (tr *tracer) end(wall time.Duration) {
	tr.wall = wall
	tr.closeStep(time.Now())
}

// head runs first in every executed step: it closes the previous step,
// samples how many routers are awake, and opens span recording for a few
// steps in the middle of the budget.
func (tr *tracer) head(now sim.Cycle) {
	t := time.Now()
	tr.closeStep(t)
	tr.samples++
	tr.net.AuditRouters(func(r *router.Router) {
		tr.routers++
		if !r.Activity().Asleep(now) {
			tr.awake++
		}
	})
	tr.recording = now >= tr.budget/2 && tr.recorded < recordSteps
	if tr.recording {
		tr.recorded++
		tr.stepID = stepIDBase | int32(len(tr.stepSpans))
		tr.stepStart = t
	}
	tr.hookEnd = time.Now()
	tr.hooks += tr.hookEnd.Sub(t)
}

// tail runs last among the step hooks, right before the shards tick.
func (tr *tracer) tail() {
	t := time.Now()
	tr.flowStep += t.Sub(tr.hookEnd)
	tr.dispatch = t
	tr.stepOpen = true
}

// closeStep ends the open step at t: it splits each shard's part of the
// step into tick (head to tail marker), barrier wait (waiting to be
// released, then for the slowest shard) and flush (slowest shard's tail
// marker to t), and records the step span.
func (tr *tracer) closeStep(t time.Time) {
	if !tr.stepOpen {
		return
	}
	tr.stepOpen = false
	if tr.markers {
		last := tr.shards[0].tail
		for _, st := range tr.shards[1:] {
			if st.tail.After(last) {
				last = st.tail
			}
		}
		for _, st := range tr.shards {
			tr.shardTick += st.tail.Sub(st.head)
			tr.barrierWait += st.head.Sub(tr.dispatch) + last.Sub(st.tail)
		}
		tr.fl += t.Sub(last)
	}
	if tr.recording {
		tr.stepSpans = append(tr.stepSpans, span{ID: tr.stepID, Parent: -1, Name: layerNames[lStep],
			Start: tr.stepStart.Sub(tr.t0).Nanoseconds(), End: t.Sub(tr.t0).Nanoseconds()})
	}
}

// merged sums the shards' state into one.
func (tr *tracer) merged() *shardTrace {
	m := &shardTrace{}
	for _, st := range tr.shards {
		for l := range st.total {
			m.total[l] += st.total[l]
			m.self[l] += st.self[l]
			m.calls[l] += st.calls[l]
		}
		m.sendOK += st.sendOK
		m.recvHit += st.recvHit
		m.pumps += st.pumps
		m.buffered += st.buffered
		m.delivers += st.delivers
		m.deliverHit += st.deliverHit
		m.fabricLat.merge(&st.fabricLat)
		m.acceptWait.merge(&st.acceptWait)
		m.sourceWait.merge(&st.sourceWait)
		m.spans = append(m.spans, st.spans...)
	}
	return m
}

// marker stamps the time it ticks: registered first and last in a shard,
// it brackets the shard's tick phase. It has no Activity, so it ticks every
// executed cycle (and keeps the engine from fast-forwarding, which a
// saturated workload never does anyway).
type marker struct{ at *time.Time }

func (m marker) Tick(sim.Cycle) { *m.at = time.Now() }

// portShim times a router.Port's work calls and counts what they did. The
// cheap accessors (CanAccept, Quiet, Activity, ...) pass through untimed;
// Activity in particular must be the port's own latch.
type portShim struct {
	router.Port
	st *shardTrace
}

func (p *portShim) Pump(now sim.Cycle) bool {
	m := p.st.enter()
	ok := p.Port.Pump(now)
	p.st.exit(lPort, m)
	p.st.pumps++
	p.st.buffered += int64(p.Port.PendingFlits())
	return ok
}

func (p *portShim) Deliver(now sim.Cycle, pred func(*packet.Packet) bool) (*packet.Packet, bool) {
	m := p.st.enter()
	pk, ok := p.Port.Deliver(now, pred)
	p.st.exit(lPort, m)
	p.st.delivers++
	if ok {
		p.st.deliverHit++
		p.st.fabricLat.add(pk.DeliveredAt - pk.InjectedAt)
	}
	return pk, ok
}

func (p *portShim) StartSend(now sim.Cycle, pk *packet.Packet) {
	m := p.st.enter()
	p.Port.StartSend(now, pk)
	p.st.exit(lPort, m)
}

// nicShim times a NIFDY unit's Tick, TrySend and Recv; every other method,
// Activity included, is the unit's own.
type nicShim struct {
	*core.NIFDY
	st *shardTrace
}

func (u *nicShim) Tick(now sim.Cycle) {
	m := u.st.enter()
	u.NIFDY.Tick(now)
	u.st.exit(lCoreTick, m)
}

func (u *nicShim) TrySend(now sim.Cycle, p *packet.Packet) bool {
	m := u.st.enter()
	ok := u.NIFDY.TrySend(now, p)
	u.st.exit(lCoreSend, m)
	if ok {
		u.st.sendOK++
	}
	return ok
}

func (u *nicShim) Recv(now sim.Cycle) (*packet.Packet, bool) {
	m := u.st.enter()
	p, ok := u.NIFDY.Recv(now)
	u.st.exit(lCoreRecv, m)
	if ok {
		u.st.recvHit++
		u.st.acceptWait.add(p.AcceptedAt - p.DeliveredAt)
		u.st.sourceWait.add(p.InjectedAt - p.CreatedAt)
	}
	return p, ok
}

// procShim times a processor's Tick, which hands the cycle to the program
// goroutine and waits for it to yield; Activity and BindEngine are the
// processor's own.
type procShim struct {
	*node.Proc
	st *shardTrace
}

func (p *procShim) Tick(now sim.Cycle) {
	m := p.st.enter()
	p.Proc.Tick(now)
	p.st.exit(lNode, m)
}
