package edge

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func fillWith(data []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return data, nil }
}

func TestGetOrFillCachesAndHits(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	data, src, err := c.GetOrFill("a", 0, fillWith(make([]byte, 100)))
	if err != nil || src != SourceFill || len(data) != 100 {
		t.Fatalf("first access: src=%v err=%v len=%d", src, err, len(data))
	}
	data, src, err = c.GetOrFill("a", 0, func() ([]byte, error) {
		t.Fatal("second access went to origin")
		return nil, nil
	})
	if err != nil || src != SourceHit || len(data) != 100 {
		t.Fatalf("second access: src=%v err=%v len=%d", src, err, len(data))
	}
	if got, ok := c.Get("a"); !ok || len(got) != 100 {
		t.Fatalf("Get after fill: ok=%v len=%d", ok, len(got))
	}
	s := c.Stats()
	if s.Fills != 1 || s.Hits != 2 || s.UsedBytes != 100 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFillErrorNotCached(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	boom := fmt.Errorf("origin down")
	if _, _, err := c.GetOrFill("a", 0, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want origin error", err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("failed fill left an entry behind")
	}
}

func TestSingleFlightCollapsesConcurrentMisses(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	var fills atomic.Int64
	gate := make(chan struct{})
	const viewers = 32
	var wg sync.WaitGroup
	srcs := make([]Source, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, src, err := c.GetOrFill("hot", 0, func() ([]byte, error) {
				fills.Add(1)
				<-gate // hold every concurrent miss open
				return make([]byte, 64), nil
			})
			if err != nil {
				t.Error(err)
			}
			srcs[i] = src
		}(i)
	}
	// Wait until the one fill is in flight, then give stragglers a moment
	// to pile up before releasing it.
	for fills.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d origin fills for one key, want 1", fills.Load())
	}
	nFill := 0
	for _, s := range srcs {
		if s == SourceFill {
			nFill++
		}
	}
	if nFill != 1 {
		t.Fatalf("%d callers report SourceFill, want 1", nFill)
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := time.Unix(0, 0)
	c := New(Config{CapacityBytes: 1 << 20})
	c.now = func() time.Time { return clock }
	c.GetOrFill("live", 50*time.Millisecond, fillWith(make([]byte, 10)))
	if _, ok := c.Get("live"); !ok {
		t.Fatal("fresh TTL entry missing")
	}
	clock = clock.Add(49 * time.Millisecond)
	if _, ok := c.Get("live"); !ok {
		t.Fatal("entry expired early")
	}
	clock = clock.Add(2 * time.Millisecond)
	if _, ok := c.Get("live"); ok {
		t.Fatal("entry served past its TTL")
	}
	var refilled bool
	_, src, _ := c.GetOrFill("live", 50*time.Millisecond, func() ([]byte, error) {
		refilled = true
		return make([]byte, 10), nil
	})
	if !refilled || src != SourceFill {
		t.Fatalf("stale entry not refilled: src=%v", src)
	}
	if c.Stats().Expirations == 0 {
		t.Fatal("no expirations counted")
	}
}

func TestEvictionIsLRUUnderPressure(t *testing.T) {
	// Room for exactly two 100-byte objects.
	c := New(Config{CapacityBytes: 200})
	c.GetOrFill("a", 0, fillWith(make([]byte, 100)))
	c.GetOrFill("b", 0, fillWith(make([]byte, 100)))
	// Touch "a" so "b" is the LRU victim; then make "c" hotter than "b".
	c.Get("a")
	for i := 0; i < 3; i++ {
		c.GetOrFill("c", 0, fillWith(make([]byte, 100)))
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("hot candidate was not admitted")
	}
}

func TestColdCandidateRejectedByTinyLFU(t *testing.T) {
	c := New(Config{CapacityBytes: 200})
	// Make "a" and "b" hot via repeated requests.
	for i := 0; i < 10; i++ {
		c.GetOrFill("a", 0, fillWith(make([]byte, 100)))
		c.GetOrFill("b", 0, fillWith(make([]byte, 100)))
	}
	// A one-hit wonder must not displace them.
	if _, src, _ := c.GetOrFill("cold", 0, fillWith(make([]byte, 100))); src != SourceFill {
		t.Fatalf("cold miss src=%v", src)
	}
	if _, ok := c.Get("cold"); ok {
		t.Fatal("one-hit wonder displaced the working set")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("hot entry evicted by a cold candidate")
	}
	if c.Stats().AdmitRejects == 0 {
		t.Fatal("no admission rejects counted")
	}
}

func TestOversizeObjectBypassesCache(t *testing.T) {
	c := New(Config{CapacityBytes: 100})
	data, src, err := c.GetOrFill("big", 0, fillWith(make([]byte, 1000)))
	if err != nil || src != SourceFill || len(data) != 1000 {
		t.Fatalf("oversize fill: src=%v err=%v", src, err)
	}
	if s := c.Stats(); s.Entries != 0 || s.UsedBytes != 0 {
		t.Fatalf("oversize object was admitted: %+v", s)
	}
}

func TestZeroCapacityCacheStillServes(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 3; i++ {
		data, src, err := c.GetOrFill("a", 0, fillWith(make([]byte, 10)))
		if err != nil || src != SourceFill || len(data) != 10 {
			t.Fatalf("access %d: src=%v err=%v", i, src, err)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	c.GetOrFill("a", 0, fillWith(make([]byte, 10)))
	c.Invalidate("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived Invalidate")
	}
	// A fill in flight across the invalidation read the object before it went
	// away: its caller is served, the cache keeps nothing.
	data, src, err := c.GetOrFill("a", 0, func() ([]byte, error) {
		c.Invalidate("a")
		return make([]byte, 10), nil
	})
	if err != nil || src != SourceFill || len(data) != 10 {
		t.Fatalf("fill across Invalidate: src=%v err=%v", src, err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a fill that raced Invalidate was cached")
	}
}

func TestSketchAging(t *testing.T) {
	s := newSketch(1024)
	h := hashKey("k")
	for i := 0; i < 100; i++ {
		s.increment(h)
	}
	if got := s.estimate(h); got != 15 {
		t.Fatalf("estimate after 100 increments = %d, want saturation at 15", got)
	}
	s.age()
	if got := s.estimate(h); got != 7 {
		t.Fatalf("estimate after aging = %d, want 7", got)
	}
}

func TestContentRangeSlices(t *testing.T) {
	data := []byte("0123456789")
	c := NewContent(data)
	if c.Size() != 10 {
		t.Fatalf("Size = %d", c.Size())
	}
	dst, err := c.AppendRangeSlices(nil, 2, 5)
	if err != nil || len(dst) != 1 || string(dst[0]) != "23456" {
		t.Fatalf("interior: %q, %v", dst, err)
	}
	dst, err = c.AppendRangeSlices(dst[:0], 8, 100)
	if err != nil || len(dst) != 1 || string(dst[0]) != "89" {
		t.Fatalf("clamped: %q, %v", dst, err)
	}
	if _, err = c.AppendRangeSlices(nil, 11, 1); err == nil {
		t.Fatal("offset past EOF accepted")
	}
	c.Reset([]byte("ab"))
	if c.Size() != 2 {
		t.Fatal("Reset did not swap data")
	}
}

// closeCounter is a pin that counts its closes.
type closeCounter struct{ n atomic.Int32 }

func (c *closeCounter) Close() error { c.n.Add(1); return nil }

func pinned(pin *closeCounter, views ...string) func() (*Content, error) {
	return func() (*Content, error) {
		vs := make([][]byte, len(views))
		for i, v := range views {
			vs[i] = []byte(v)
		}
		return Pin(vs, pin, 0, ""), nil
	}
}

func TestPinnedContentRangeSlices(t *testing.T) {
	const flat = "0123456789"
	c, _ := pinned(new(closeCounter), "012", "3456", "", "789")()
	if c.Size() != int64(len(flat)) {
		t.Fatalf("Size = %d", c.Size())
	}
	for off := int64(0); off <= c.Size(); off++ {
		for n := int64(0); n <= c.Size()+1; n++ {
			views, err := c.AppendRangeSlices(nil, off, n)
			if err != nil {
				t.Fatalf("[%d,+%d): %v", off, n, err)
			}
			var got []byte
			for _, v := range views {
				if len(v) == 0 {
					t.Fatalf("[%d,+%d): empty view", off, n)
				}
				got = append(got, v...)
			}
			if want := flat[off:min(off+n, c.Size())]; string(got) != want {
				t.Fatalf("[%d,+%d) = %q, want %q", off, n, got, want)
			}
		}
	}
	if _, err := c.AppendRangeSlices(nil, 11, 1); err == nil {
		t.Fatal("offset past EOF accepted")
	}
}

// TestPinnedEntryLifetime: a pin is closed once, by whoever drops the last
// reference — the cache on eviction or purge, or the last caller still
// holding the content.
func TestPinnedEntryLifetime(t *testing.T) {
	c := New(Config{CapacityBytes: 10})
	a := new(closeCounter)
	got, src, err := c.Acquire("a", pinned(a, "0123", "456789"))
	if err != nil || src != SourceFill {
		t.Fatalf("fill: src=%v err=%v", src, err)
	}
	got.Release()
	hit, src, _ := c.Acquire("a", pinned(a))
	if src != SourceHit || hit != got || a.n.Load() != 0 {
		t.Fatalf("resident entry: src=%v same=%v closes=%d", src, hit == got, a.n.Load())
	}
	// Purged while a response holds it: the views stay valid until then.
	c.Invalidate("a")
	if a.n.Load() != 0 {
		t.Fatal("purge closed a pin a response still holds")
	}
	hit.Release()
	if a.n.Load() != 1 {
		t.Fatalf("last release closed the pin %d times, want 1", a.n.Load())
	}

	// Displaced by a new fill while held, then released.
	b, d := new(closeCounter), new(closeCounter)
	held, _, _ := c.Acquire("b", pinned(b, "0123456789"))
	got, _, _ = c.Acquire("d", pinned(d, "0123456789"))
	got.Release()
	if c.Stats().Evictions != 1 || b.n.Load() != 0 {
		t.Fatalf("evictions %d, b closed %d times; want 1 eviction and b still open", c.Stats().Evictions, b.n.Load())
	}
	held.Release()
	if b.n.Load() != 1 {
		t.Fatalf("b closed %d times, want 1", b.n.Load())
	}

	// A candidate colder than the resident entry is served, not admitted,
	// and closed by its caller's release.
	for range 3 {
		got, _, _ := c.Acquire("d", pinned(d))
		got.Release()
	}
	e := new(closeCounter)
	got, src, _ = c.Acquire("e", pinned(e, "0123456789"))
	if src != SourceFill || e.n.Load() != 0 {
		t.Fatalf("cold fill: src=%v, closed %d times before its release", src, e.n.Load())
	}
	got.Release()
	if s := c.Stats(); e.n.Load() != 1 || d.n.Load() != 0 || s.AdmitRejects != 1 {
		t.Fatalf("e closed %d times (want 1), d %d (want 0), stats %+v", e.n.Load(), d.n.Load(), s)
	}
}

// TestPinnedChargedByPinnedMemory: the budget charges pinned content half
// the memory its pin holds when that is more than its length, so a cache of
// segments much smaller than what they pin keeps at most twice its budget
// alive.
func TestPinnedChargedByPinnedMemory(t *testing.T) {
	c := New(Config{CapacityBytes: 100})
	small := func(pin *closeCounter, held int64) func() (*Content, error) {
		return func() (*Content, error) { return Pin([][]byte{[]byte("0123")}, pin, held, ""), nil }
	}
	a, b := new(closeCounter), new(closeCounter)
	got, _, _ := c.Acquire("a", small(a, 120))
	got.Release()
	if s := c.Stats(); s.UsedBytes != 60 || s.Entries != 1 {
		t.Fatalf("after a: used %d, %d entries; want 60 and 1", s.UsedBytes, s.Entries)
	}
	got, _, _ = c.Acquire("b", small(b, 120))
	got.Release()
	if s := c.Stats(); s.UsedBytes != 60 || s.Evictions != 1 || a.n.Load() != 1 {
		t.Fatalf("after b: used %d, %d evictions, a closed %d times; want 60, 1, 1", s.UsedBytes, s.Evictions, a.n.Load())
	}
	// Content filling at least half of what it pins is charged its length.
	if got := Pin([][]byte{[]byte("0123")}, b, 8, ""); got.charge != 4 {
		t.Fatalf("charge %d, want the length 4", got.charge)
	}
}

// TestGetAndGetOrFillRefusePinned: Get and GetOrFill hand out one owned
// slice, which pinned content does not have. Get reports a pinned entry
// absent and GetOrFill fails, dropping the reference its lookup took,
// instead of serving an empty body.
func TestGetAndGetOrFillRefusePinned(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 10})
	pin := new(closeCounter)
	got, _, _ := c.Acquire("k", pinned(pin, "abc", "def"))
	got.Release()
	if data, ok := c.Get("k"); ok {
		t.Fatalf("Get served pinned content as %q", data)
	}
	if data, src, err := c.GetOrFill("k", 0, func() ([]byte, error) { return []byte("other"), nil }); err == nil {
		t.Fatalf("GetOrFill served pinned content as %q (%v)", data, src)
	}
	c.Invalidate("k")
	if n := pin.n.Load(); n != 1 {
		t.Fatalf("pin closed %d times after the purge, want 1", n)
	}
}

// TestPinnedFillInvalidatedInFlight: a fill invalidated in flight serves its
// joiners and is closed when the last of them lets go.
func TestPinnedFillInvalidatedInFlight(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	pin := new(closeCounter)
	gate := make(chan struct{})
	const joiners = 3
	var wg sync.WaitGroup
	held := make(chan *Content, joiners+1)
	fill := func() (*Content, error) {
		<-gate
		c.Invalidate("k")
		return pinned(pin, "abc")()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, _ := c.Acquire("k", fill)
		held <- got
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	for range joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, _ := c.Acquire("k", fill)
			held <- got
		}()
	}
	for c.Stats().Joins < joiners {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(held)
	n := 0
	for got := range held {
		if pin.n.Load() != 0 {
			t.Fatal("pin closed while a joiner still holds it")
		}
		got.Release()
		n++
	}
	if n != joiners+1 || pin.n.Load() != 1 || c.Stats().Entries != 0 {
		t.Fatalf("%d holders, pin closed %d times, %d entries; want %d, 1, 0", n, pin.n.Load(), c.Stats().Entries, joiners+1)
	}
}

// TestKeyCopiedWhenKept: a caller may build its key in memory it reuses
// once the call returns, as the segment handler builds it on its stack. The
// cache keeps its own copy, so what the caller writes there next does not
// rename what was cached.
func TestKeyCopiedWhenKept(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	buf := []byte("seg/1/720p/0")
	view := unsafe.String(unsafe.SliceData(buf), len(buf))
	content, src, err := c.Acquire(view, pinned(new(closeCounter), "abcd"))
	if err != nil || src != SourceFill {
		t.Fatalf("fill: src=%v err=%v", src, err)
	}
	content.Release()
	if _, _, err := c.GetOrFill(view[:len(view)-2], 0, fillWith([]byte("playlist"))); err != nil {
		t.Fatal(err)
	}
	copy(buf, "seg/9/999p/9")
	content, src, err = c.Acquire("seg/1/720p/0", func() (*Content, error) {
		t.Fatal("a cached key went to origin after the caller reused its memory")
		return nil, nil
	})
	if err != nil || src != SourceHit {
		t.Fatalf("hit: src=%v err=%v", src, err)
	}
	content.Release()
	if data, ok := c.Get("seg/1/720p"); !ok || string(data) != "playlist" {
		t.Fatalf("owned entry under the caller's old key: %q, %v", data, ok)
	}
}
