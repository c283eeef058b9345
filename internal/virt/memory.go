package virt

import (
	"fmt"
	"math/rand"
)

// PageSize is the guest page size in bytes, matching x86 4 KiB pages. Live
// migration moves memory at page granularity, so the dirty-page bitmap below
// is the ground truth the pre-copy algorithm iterates over.
const PageSize = 4096

// GuestMemory tracks which pages of a VM's RAM have been written since the
// last clear. It is a real bitmap, not a rate model: workloads mark pages and
// the migration engine harvests them, so the writable-working-set effects
// that govern pre-copy convergence (re-dirtying the same hot pages costs one
// page, not many) emerge from the data structure instead of being assumed.
type GuestMemory struct {
	pages      int
	dirty      []uint64
	dirtyCount int
}

// NewGuestMemory returns memory of the given size. Sizes that are not a
// multiple of PageSize are rounded up to whole pages.
func NewGuestMemory(bytes int64) *GuestMemory {
	if bytes <= 0 {
		panic(fmt.Sprintf("virt: non-positive memory size %d", bytes))
	}
	pages := int((bytes + PageSize - 1) / PageSize)
	return &GuestMemory{
		pages: pages,
		dirty: make([]uint64, (pages+63)/64),
	}
}

// Pages returns the total number of guest pages.
func (m *GuestMemory) Pages() int { return m.pages }

// DirtyCount returns the number of pages dirtied since the last clear.
func (m *GuestMemory) DirtyCount() int { return m.dirtyCount }

// MarkDirty marks page p dirty. Marking an already-dirty page is a no-op,
// which is exactly the writable-working-set property.
func (m *GuestMemory) MarkDirty(p int) {
	m.check(p)
	w, b := p/64, uint64(1)<<(p%64)
	if m.dirty[w]&b == 0 {
		m.dirty[w] |= b
		m.dirtyCount++
	}
}

func (m *GuestMemory) check(p int) {
	if p < 0 || p >= m.pages {
		panic(fmt.Sprintf("virt: page %d out of range [0,%d)", p, m.pages))
	}
}

// MarkAllDirty marks every page, the state at the start of a migration's
// first pre-copy round.
func (m *GuestMemory) MarkAllDirty() {
	for i := range m.dirty {
		m.dirty[i] = ^uint64(0)
	}
	// Clear bits past the last page in the final word.
	if rem := m.pages % 64; rem != 0 {
		m.dirty[len(m.dirty)-1] = (1 << rem) - 1
	}
	m.dirtyCount = m.pages
}

// ClearDirty resets the bitmap and returns how many pages were dirty.
func (m *GuestMemory) ClearDirty() int {
	n := m.dirtyCount
	for i := range m.dirty {
		m.dirty[i] = 0
	}
	m.dirtyCount = 0
	return n
}

// DirtyRandom performs writes uniformly at random page addresses. writes is
// the number of page-granularity stores, not the number of newly dirtied
// pages: hitting an already-dirty page adds nothing, so the resulting dirty
// growth saturates exactly like a real uniform writer.
func (m *GuestMemory) DirtyRandom(writes int, rng *rand.Rand) {
	for i := 0; i < writes; i++ {
		m.MarkDirty(rng.Intn(m.pages))
	}
}

// DirtyHotspot performs writes where hotFrac of the address space receives
// hotBias of the writes (e.g. 10% of pages take 90% of writes). This is the
// working-set shape that makes pre-copy converge.
func (m *GuestMemory) DirtyHotspot(writes int, hotFrac, hotBias float64, rng *rand.Rand) {
	if hotFrac <= 0 || hotFrac > 1 || hotBias < 0 || hotBias > 1 {
		panic(fmt.Sprintf("virt: bad hotspot parameters frac=%v bias=%v", hotFrac, hotBias))
	}
	hotPages := int(float64(m.pages) * hotFrac)
	if hotPages < 1 {
		hotPages = 1
	}
	for i := 0; i < writes; i++ {
		if rng.Float64() < hotBias {
			m.MarkDirty(rng.Intn(hotPages))
		} else {
			m.MarkDirty(rng.Intn(m.pages))
		}
	}
}

// DirtySequential performs writes at consecutive pages starting at *cursor,
// wrapping at the end of memory, and advances the cursor — the access
// pattern of a streaming video buffer.
func (m *GuestMemory) DirtySequential(writes int, cursor *int) {
	if *cursor < 0 || *cursor >= m.pages {
		*cursor = 0
	}
	for i := 0; i < writes; i++ {
		m.MarkDirty(*cursor)
		*cursor = (*cursor + 1) % m.pages
	}
}
