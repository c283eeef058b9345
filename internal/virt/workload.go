package virt

import (
	"math/rand"
	"time"
)

// Workload models what a guest does with its CPU and memory while it runs.
// The migration engine applies a workload's dirtying to the guest bitmap for
// each elapsed interval of virtual time; the scheduler and the E5
// virtualization-overhead experiment read its CPU demand.
type Workload interface {
	// CPUUtil is the fraction of the VM's vCPUs the workload keeps busy,
	// in [0,1].
	CPUUtil() float64
	// ApplyDirty marks pages in mem for dt of guest run time.
	ApplyDirty(mem *GuestMemory, dt time.Duration, rng *rand.Rand)
}

// IdleWorkload is a VM that boots and does nothing — the baseline for
// migration (converges immediately) and placement experiments.
type IdleWorkload struct{}

// idleDirtyBytesPerSec is an idle guest's kernel housekeeping.
const idleDirtyBytesPerSec = 64 * 1024

// CPUUtil implements Workload.
func (IdleWorkload) CPUUtil() float64 { return 0.02 }

// ApplyDirty implements Workload.
func (IdleWorkload) ApplyDirty(mem *GuestMemory, dt time.Duration, rng *rand.Rand) {
	writes := int(idleDirtyBytesPerSec * dt.Seconds() / PageSize)
	mem.DirtyRandom(writes, rng)
}

// UniformWriter dirties pages uniformly at random at Rate bytes/second —
// the adversarial case for pre-copy (no working-set locality), used to find
// the dirty-rate/bandwidth crossover in E1.
type UniformWriter struct {
	Rate int64 // bytes/second of page-granularity stores
	Util float64
}

// CPUUtil implements Workload.
func (w UniformWriter) CPUUtil() float64 {
	if w.Util == 0 {
		return 0.5
	}
	return w.Util
}

// ApplyDirty implements Workload.
func (w UniformWriter) ApplyDirty(mem *GuestMemory, dt time.Duration, rng *rand.Rand) {
	writes := int(float64(w.Rate) * dt.Seconds() / PageSize)
	mem.DirtyRandom(writes, rng)
}

// HotspotWriter concentrates HotBias of its writes on HotFraction of memory
// — the realistic server shape (Clark et al. call it the writable working
// set) under which pre-copy converges in a few rounds.
type HotspotWriter struct {
	Rate        int64
	HotFraction float64 // e.g. 0.1: 10% of pages are hot
	HotBias     float64 // e.g. 0.9: hot pages take 90% of writes
	Util        float64
}

// CPUUtil implements Workload.
func (w HotspotWriter) CPUUtil() float64 {
	if w.Util == 0 {
		return 0.6
	}
	return w.Util
}

// ApplyDirty implements Workload.
func (w HotspotWriter) ApplyDirty(mem *GuestMemory, dt time.Duration, rng *rand.Rand) {
	writes := int(float64(w.Rate) * dt.Seconds() / PageSize)
	frac, bias := w.HotFraction, w.HotBias
	if frac == 0 {
		frac = 0.1
	}
	if bias == 0 {
		bias = 0.9
	}
	mem.DirtyHotspot(writes, frac, bias, rng)
}

// StreamingServer models the paper's video-serving VM: a cyclic buffer is
// refilled sequentially at the streaming rate while a small hot set (session
// state) is rewritten continuously.
type StreamingServer struct {
	StreamRate int64 // bytes/second written into the playout buffer
	cursor     int
}

// CPUUtil implements Workload.
func (w *StreamingServer) CPUUtil() float64 { return 0.35 }

// ApplyDirty implements Workload.
func (w *StreamingServer) ApplyDirty(mem *GuestMemory, dt time.Duration, rng *rand.Rand) {
	seq := int(float64(w.StreamRate) * dt.Seconds() / PageSize)
	mem.DirtySequential(seq, &w.cursor)
	// Session state: ~10% extra writes within the first 2% of memory.
	hot := seq / 10
	if hot > 0 {
		mem.DirtyHotspot(hot, 0.02, 1.0, rng)
	}
}
