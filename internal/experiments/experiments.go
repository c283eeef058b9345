// Package experiments contains the reproduction harnesses for every figure
// and in-text performance claim of the paper (DESIGN.md §4, EXPERIMENTS.md).
// Each E* function builds its workload, runs it, gates the expected
// qualitative shape, and returns an aligned table whose rows are recorded in
// EXPERIMENTS.md. Registry is the one list of them: cmd/benchcloud, the
// package's TestRegistry and the root BenchmarkExperiments all run from it.
package experiments

import (
	"fmt"
	"slices"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/simnet"
	"videocloud/internal/simtime"
	"videocloud/internal/virt"
)

const (
	gb = int64(1) << 30
	mb = int64(1) << 20
)

// ms renders a duration as fractional milliseconds for table rows.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secs renders a duration as fractional seconds for table rows.
func secs(d time.Duration) float64 { return d.Seconds() }

// migrationRig builds two GbE-connected hosts for migration experiments.
type migrationRig struct {
	sim *simtime.Simulator
	net *simnet.Network
	src *virt.Host
	dst *virt.Host
}

func newMigrationRig(bandwidth float64) *migrationRig {
	sim := simtime.NewSimulator()
	net := simnet.New(sim)
	net.AddHost("node2", bandwidth, bandwidth, 100*time.Microsecond)
	net.AddHost("node3", bandwidth, bandwidth, 100*time.Microsecond)
	return &migrationRig{
		sim: sim, net: net,
		src: virt.NewHost("node3", 8, 1e9, 64*gb, 500*gb, 0),
		dst: virt.NewHost("node2", 8, 1e9, 64*gb, 500*gb, 0),
	}
}

func (r *migrationRig) vm(name string, memBytes int64, w virt.Workload) *virt.VM {
	vm, err := r.src.CreateVM(virt.VMConfig{
		Name: name, VCPUs: 2, MemoryBytes: memBytes, DiskBytes: 10 * gb, Mode: virt.HWAssist,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	vm.Workload = w
	if err := vm.Start(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return vm
}

// check panics with a labelled message when an experiment invariant fails;
// the Registry's runners convert that into a test failure or an exit status.
func check(cond bool, format string, args ...any) {
	if !cond {
		panic("experiments: shape violation: " + fmt.Sprintf(format, args...))
	}
}

// clearlyAbove is the only verdict an experiment passes on a latency or a
// rate. On a shared host those move 10-30% between identical runs, so a
// single-shot ratio against a fixed threshold fails on noise or cannot fail
// at all; this holds only when every sample of xs exceeds every sample of
// base by more than factor, i.e. the two intervals stay apart even after
// scaling. The measured values are printed either way.
func clearlyAbove(xs, base []float64, factor float64) bool {
	return slices.Min(xs) > factor*slices.Max(base)
}

// Experiment is one registered reproduction: its id (the -only key of
// cmd/benchcloud), what in the paper or the design it reproduces, and the
// harness, which panics on a shape violation.
type Experiment struct {
	ID, Ref string
	Run     func() *metrics.Table
}

// Registry lists every experiment in report order: the one table All and
// cmd/benchcloud both run from.
var Registry = []Experiment{
	{"E1", "Figs 8-10", E1LiveMigration},
	{"E1b", "refs [20][21]", E1bMigrationAlgorithms},
	{"E1c", "migration + service traffic", E1cMigrationUnderContention},
	{"E2", "Fig 16", E2ParallelTranscode},
	{"E3", "§I index construction", E3IndexConstruction},
	{"E4", "§III search vs DB", E4SearchVsScan},
	{"E5", "Figs 1-2", E5VirtOverhead},
	{"E6", "§III-A capacity manager", E6Placement},
	{"E6b", "§II-C shared images", E6bProvisioning},
	{"E6c", "§III-A economize power", E6cConsolidation},
	{"E7", "Fig 11", E7HDFSReplication},
	{"E8", "Fig 12", E8MapReduceScaling},
	{"E8b", "straggler ablation", E8bSpeculativeExecution},
	{"E9", "Figs 17-23", E9EndToEnd},
	{"E9b", "concurrent viewers", E9bConcurrentLoad},
	{"E10", "Figs 6,13,14", E10FullStack},
	{"E11", "VoD auto-scaling (ref [28])", E11AutoScaling},
	{"E13", "traced request anatomy", E13CriticalPath},
	{"E14", "serving fleet scale-out", E14ServingScale},
	{"E15", "edge cache under ABR fan-out", E15EdgeDelivery},
	{"E16", "elastic transcode fleet", E16Elasticity},
	{"E17", "multi-tenant isolation + ledger", E17Tenancy},
}

// All runs every experiment and returns the tables in order.
func All() []*metrics.Table {
	tables := make([]*metrics.Table, 0, len(Registry))
	for _, e := range Registry {
		tables = append(tables, e.Run())
	}
	return tables
}
