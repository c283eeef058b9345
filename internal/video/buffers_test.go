package video

import (
	"runtime"
	"sync"
	"testing"
)

// TestBuffersKeepsBestFitWithinBounds: Get takes the smallest kept buffer
// that holds n bytes and makes one only when none does; Put keeps at most
// the slot count, the largest buffers, and none over the size bound.
func TestBuffersKeepsBestFitWithinBounds(t *testing.T) {
	l := NewBuffers(2, 1000)
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }
	small, mid, big := l.Get(100), l.Get(500), l.Get(900)
	if len(small) != 100 || len(mid) != 500 || len(big) != 900 {
		t.Fatalf("Get lengths %d %d %d, want 100 500 900", len(small), len(mid), len(big))
	}
	l.Put(small)
	l.Put(mid)
	l.Put(big) // every slot taken: the smallest kept one, small, makes way
	l.Put(make([]byte, 1001))
	if got := l.Get(50); !same(got, mid) || len(got) != 50 {
		t.Fatal("Get(50) did not take the smallest kept buffer that holds it")
	}
	if got := l.Get(50); !same(got, big) {
		t.Fatal("Get(50) did not take the one buffer left")
	}
	if got := l.Get(50); same(got, small) || same(got, mid) || same(got, big) || cap(got) != 50 {
		t.Fatal("Get from an empty list did not make a new buffer")
	}
	l.Put(mid)
	if got := l.Get(600); same(got, mid) || len(got) != 600 {
		t.Fatal("Get(600) took a 500-byte buffer")
	}
}

// TestBuffersHoldersNeverShare: goroutines taking, writing, checking and
// giving back buffers of assorted sizes never hold the same bytes at once.
// Run under -race -count=10 when the free list changes.
func TestBuffersHoldersNeverShare(t *testing.T) {
	l := NewBuffers(2, 8<<10)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				b := l.Get(1 + (g*997+i*131)%(8<<10))
				mark := byte(g*31 + i)
				for j := range b {
					b[j] = mark
				}
				runtime.Gosched()
				for j := range b {
					if b[j] != mark {
						t.Errorf("goroutine %d: byte %d of a buffer it holds changed under it", g, j)
						return
					}
				}
				l.Put(b)
			}
		}()
	}
	wg.Wait()
}
