package virt

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestGuestMemorySizing(t *testing.T) {
	m := NewGuestMemory(1 << 20) // 1 MiB
	if m.Pages() != 256 {
		t.Fatalf("Pages = %d, want 256", m.Pages())
	}
	if m.Bytes() != 1<<20 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
	// Non-multiple rounds up.
	m = NewGuestMemory(PageSize + 1)
	if m.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2 (round up)", m.Pages())
	}
}

func TestNewGuestMemoryPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGuestMemory(0)
}

func TestMarkDirtyIdempotent(t *testing.T) {
	m := NewGuestMemory(64 * PageSize)
	m.MarkDirty(5)
	m.MarkDirty(5)
	m.MarkDirty(5)
	if m.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d, want 1 (WWS property)", m.DirtyCount())
	}
	if !m.IsDirty(5) || m.IsDirty(6) {
		t.Fatal("IsDirty wrong")
	}
}

func TestMarkAllAndClear(t *testing.T) {
	for _, pages := range []int{1, 63, 64, 65, 1000} {
		m := NewGuestMemory(int64(pages) * PageSize)
		m.MarkAllDirty()
		if m.DirtyCount() != pages {
			t.Fatalf("pages=%d: DirtyCount=%d after MarkAllDirty", pages, m.DirtyCount())
		}
		if m.recount() != pages {
			t.Fatalf("pages=%d: bitmap recount=%d", pages, m.recount())
		}
		if n := m.ClearDirty(); n != pages {
			t.Fatalf("ClearDirty returned %d, want %d", n, pages)
		}
		if m.DirtyCount() != 0 || m.recount() != 0 {
			t.Fatal("clear left dirty pages")
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewGuestMemory(4 * PageSize)
	for _, p := range []int{-1, 4, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("page %d did not panic", p)
				}
			}()
			m.MarkDirty(p)
		}()
	}
}

func TestDirtyRandomSaturates(t *testing.T) {
	m := NewGuestMemory(128 * PageSize)
	rng := rand.New(rand.NewSource(1))
	m.DirtyRandom(100000, rng)
	if m.DirtyCount() != 128 {
		t.Fatalf("heavy random writes dirtied %d/128 pages", m.DirtyCount())
	}
}

func TestDirtyHotspotConcentrates(t *testing.T) {
	m := NewGuestMemory(10000 * PageSize)
	rng := rand.New(rand.NewSource(2))
	m.DirtyHotspot(5000, 0.1, 0.9, rng)
	// 90% of 5000 writes land in 1000 hot pages: those saturate, so the
	// dirty count should be far below 5000.
	if m.DirtyCount() >= 4000 {
		t.Fatalf("hotspot writes dirtied %d pages, expected strong saturation", m.DirtyCount())
	}
	if m.DirtyCount() < 1000 {
		t.Fatalf("hotspot writes dirtied only %d pages", m.DirtyCount())
	}
}

func TestDirtyHotspotValidation(t *testing.T) {
	m := NewGuestMemory(10 * PageSize)
	rng := rand.New(rand.NewSource(3))
	for _, bad := range [][2]float64{{0, 0.5}, {1.5, 0.5}, {0.5, -0.1}, {0.5, 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("params %v did not panic", bad)
				}
			}()
			m.DirtyHotspot(1, bad[0], bad[1], rng)
		}()
	}
}

func TestDirtySequentialWraps(t *testing.T) {
	m := NewGuestMemory(10 * PageSize)
	cursor := 8
	m.DirtySequential(4, &cursor) // pages 8,9,0,1
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}
	for _, p := range []int{8, 9, 0, 1} {
		if !m.IsDirty(p) {
			t.Fatalf("page %d not dirty", p)
		}
	}
	if m.DirtyCount() != 4 {
		t.Fatalf("DirtyCount = %d", m.DirtyCount())
	}
	// Bad cursor resets to 0.
	cursor = 99
	m.DirtySequential(1, &cursor)
	if !m.IsDirty(0) || cursor != 1 {
		t.Fatalf("bad cursor not reset: cursor=%d", cursor)
	}
}

// Property: DirtyCount always equals the bitmap population count, for any
// mix of operations.
func TestPropertyDirtyCountMatchesBitmap(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		m := NewGuestMemory(777 * PageSize)
		rng := rand.New(rand.NewSource(seed))
		cursor := 0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				m.MarkDirty(int(op) % m.Pages())
			case 1:
				m.DirtyRandom(int(op%100), rng)
			case 2:
				m.DirtyHotspot(int(op%100), 0.1, 0.9, rng)
			case 3:
				m.DirtySequential(int(op%200), &cursor)
			case 4:
				m.ClearDirty()
			}
			if m.DirtyCount() != m.recount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: dirty growth from N random writes is <= N and <= total pages.
func TestPropertyDirtyGrowthBounded(t *testing.T) {
	f := func(seed int64, writes uint16) bool {
		m := NewGuestMemory(512 * PageSize)
		rng := rand.New(rand.NewSource(seed))
		m.DirtyRandom(int(writes), rng)
		return m.DirtyCount() <= int(writes) && m.DirtyCount() <= m.Pages()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsApplyDirty(t *testing.T) {
	for _, w := range []Workload{
		IdleWorkload{},
		UniformWriter{Rate: 10 * 1 << 20},
		HotspotWriter{Rate: 10 * 1 << 20},
		&StreamingServer{StreamRate: 5 * 1 << 20},
	} {
		m := NewGuestMemory(64 << 20) // 64 MiB
		rng := rand.New(rand.NewSource(7))
		w.ApplyDirty(m, time.Second, rng)
		if u := w.CPUUtil(); u < 0 || u > 1 {
			t.Fatalf("%T: CPUUtil %v out of range", w, u)
		}
		if m.DirtyCount() == 0 {
			t.Fatalf("%T: 1s of workload dirtied nothing", w)
		}
	}
}

func TestStreamingServerIsSequential(t *testing.T) {
	w := &StreamingServer{StreamRate: 4 * 1 << 20} // 4 MB/s = 1024 pages/s
	m := NewGuestMemory(1 << 30)                   // 1 GiB: no wrap in 1s
	rng := rand.New(rand.NewSource(1))
	w.ApplyDirty(m, time.Second, rng)
	// The first 1024 pages must be dirty (sequential fill from cursor 0).
	for p := 0; p < 1024; p++ {
		if !m.IsDirty(p) {
			t.Fatalf("sequential page %d not dirty", p)
		}
	}
}
