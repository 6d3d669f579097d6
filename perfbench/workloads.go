package main

import (
	"fmt"

	"nifdy/internal/harness"
	"nifdy/internal/sim"
	"nifdy/internal/traffic"
)

// workload is one named simulation the benchmark runs. A workload with a
// traffic generator is a processor-driven NIFDY simulation built through
// harness.Build; one without is a saturated-injector fabric run through
// harness.ScaleBench.
type workload struct {
	name string
	// net builds the fabric spec.
	net func() harness.NetSpec
	// nodes is the fabric's end-point count, checked against the build.
	nodes int
	// traffic, when set, makes this a processor-driven workload: every
	// node runs the generator's program on a NIFDY NIC.
	traffic func(nodes int, seed uint64) traffic.Config
	// cycles is the fixed simulated budget of one run.
	cycles sim.Cycle
	// shards is the engine shard count.
	shards int
}

func (w *workload) scale() bool { return w.traffic == nil }

// unbounded turns a paper traffic pattern into a closed-loop stream whose
// phases never run out inside the cycle budget, as Figures 2 and 3 do.
func unbounded(pattern func(int, uint64) traffic.Config) func(int, uint64) traffic.Config {
	return func(n int, seed uint64) traffic.Config {
		c := pattern(n, seed)
		c.Phases = 1 << 20
		return c
	}
}

// workloads are the benchmark's named workloads. Their names replace the
// ambiguous f2/f3/scale labels of the legacy BENCH_*.json files; why each
// was chosen is recorded in BENCHMARK.json. Budgets are sized so that one
// run takes one to four host seconds and, across seeds, delivered counts
// and latency percentiles vary by a few percent at most.
var workloads = []workload{
	{
		// Figure 2's NIFDY mesh cell: saturated, every layer busy.
		name: "mesh64-heavy",
		net:  harness.Mesh2D, nodes: 64,
		traffic: unbounded(traffic.Heavy),
		cycles:  80_000, shards: 1,
	},
	{
		// Figure 3's NIFDY CM-5 cell: bulk dialogs, sleeping components.
		name: "cm5-light",
		net:  harness.CM5FatTree, nodes: 64,
		traffic: unbounded(traffic.Light),
		cycles:  600_000, shards: 1,
	},
	{
		// The one large flit simulation where a second shard pays. Not in
		// the gated set of BENCHMARK.json: its host time follows the load
		// on both vCPUs, which the reference walk cannot correct for.
		name:   "mesh1024-2shard",
		net:    func() harness.NetSpec { return harness.FabricMesh(32, 32) },
		nodes:  1024,
		cycles: 3_000, shards: 2,
	},
	{
		// Flow solver at scale: no routers, large setup and heap.
		name:   "flow100k",
		net:    func() harness.NetSpec { return harness.FlowMeshSized(320, 320) },
		nodes:  320 * 320,
		cycles: 8_000, shards: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
