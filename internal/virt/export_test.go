package virt

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"fmt"
	"math/bits"
)

// Bytes returns the total memory size in bytes.
func (m *GuestMemory) Bytes() int64 { return int64(m.pages) * PageSize }

// IsDirty reports whether page p is dirty. Out-of-range pages panic.
func (m *GuestMemory) IsDirty(p int) bool {
	m.check(p)
	return m.dirty[p/64]&(1<<(p%64)) != 0
}

// SetCPUOvercommit allows factor× vCPU oversubscription (OpenNebula's
// default deployments overcommit CPU but not memory). factor < 1 panics.
func (h *Host) SetCPUOvercommit(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("virt: overcommit factor %v < 1", factor))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cpuOC = factor
}

// AdoptVM attaches an existing VM (arriving via migration) to this host,
// reserving its resources. The VM keeps its memory image and state.
func (h *Host) AdoptVM(vm *VM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cfg := vm.Config
	if _, dup := h.vms[cfg.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateVM, cfg.Name)
	}
	if !h.fitsLocked(cfg) {
		return fmt.Errorf("%w: adopt %q on %q", ErrInsufficientCapacity, cfg.Name, h.Name)
	}
	h.vms[cfg.Name] = vm
	h.usedVCPU += cfg.VCPUs
	h.usedMem += cfg.MemoryBytes
	h.usedDisk += cfg.DiskBytes
	vm.mu.Lock()
	vm.host = h
	vm.mu.Unlock()
	return nil
}

// VM returns the named VM or nil.
func (h *Host) VM(name string) *VM {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.vms[name]
}

// setState is used by the migration engine, which owns the
// Running<->Migrating transitions.
func (v *VM) setState(s VMState) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.state = s
}

// recount recomputes dirtyCount from the bitmap; used by property tests to
// validate the incremental counter.
func (m *GuestMemory) recount() int {
	n := 0
	for _, w := range m.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}
