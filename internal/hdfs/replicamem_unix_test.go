//go:build unix

package hdfs

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mappingsOf returns the first byte of every mapping the nodes' replicas
// hold.
func mappingsOf(dns ...*DataNode) []*byte {
	var out []*byte
	for _, dn := range dns {
		dn.mu.RLock()
		for _, bd := range dn.blocks {
			out = append(out, &bd.data[0])
		}
		dn.mu.RUnlock()
	}
	return out
}

// extentMappingsOf returns the first byte of every mapping the cache's
// resident extents hold.
func extentMappingsOf(bc *BlockCache) []*byte {
	var out []*byte
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, b := range bc.blocks {
		for _, e := range b.extents {
			if e != nil {
				out = append(out, &e.mem.b[0])
			}
		}
	}
	return out
}

// waitReleased collects until every mapping named is back on a free list: a
// mapping goes back only once a collection has found its record unreachable
// and the finalizer has run.
func waitReleased(t *testing.T, mappings []*byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := &memPool
		free := make(map[*byte]bool)
		p.mu.Lock()
		for _, list := range p.free {
			for _, m := range list {
				free[&m.b[0]] = true
			}
		}
		p.mu.Unlock()
		held := 0
		for _, m := range mappings {
			if !free[m] {
				held++
			}
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d mappings are still not on a free list", held, len(mappings))
		}
		runtime.GC()
	}
}

// TestReplicaBytesOffHeap: storing 64 MiB of replicas grows the Go heap by
// the records' checksum ladders, not by the bytes.
func TestReplicaBytesOffHeap(t *testing.T) {
	const block, blocks = 4 << 20, 16
	src := payload(block, 7)
	dn := NewDataNode("dn")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range blocks {
		if err := dn.Store(BlockID(i), src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if used := dn.Used(); used != blocks*block {
		t.Fatalf("Used = %d; want %d", used, blocks*block)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("storing %d MiB grew the heap by %d B", blocks*block>>20, grew)
	if grew >= 2<<20 {
		t.Fatalf("storing %d MiB of replicas grew HeapAlloc by %d B; want < 2 MiB", blocks*block>>20, grew)
	}
	got, err := dn.Read(blocks - 1)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("Read after store: err %v, equal %v", err, bytes.Equal(got, src))
	}
}

// TestReplicaMemoryRecycled: every mapping of a dropped cluster — its
// replicas' and its cached extents' — goes back on a free list, and a second
// cluster of the same shape maps no new memory; an overwriting Store and a
// Delete each give the old mapping back.
func TestReplicaMemoryRecycled(t *testing.T) {
	build := func() (replicas, extents []*byte) {
		c := NewCluster(3, 1<<20)
		cl := c.Client("")
		for i := range 4 {
			path := fmt.Sprintf("/f%d", i)
			if err := cl.WriteFile(path, payload(3<<20+i*100<<10, int64(i)), 2); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		return mappingsOf(c.DataNode("dn0"), c.DataNode("dn1"), c.DataNode("dn2")), extentMappingsOf(c.BlockCache())
	}
	first, extents := build()
	if len(first) != 2*(4*3+3) {
		t.Fatalf("the cluster holds %d mappings; want one per replica, %d", len(first), 2*(4*3+3))
	}
	// Four extents per whole 1 MiB block, and 1, 1 and 2 for the 100, 200
	// and 300 KiB last blocks.
	if want := 4*3*4 + 1 + 1 + 2; len(extents) != want {
		t.Fatalf("the cluster's cache holds %d extents; want one per extent read, %d", len(extents), want)
	}
	waitReleased(t, append(first, extents...))
	mapped := mappedBytes()
	second, extents := build()
	waitReleased(t, append(second, extents...))
	if m := mappedBytes(); m != mapped {
		t.Fatalf("a second cluster of the same shape mapped %d new bytes; want 0", m-mapped)
	}

	dn := NewDataNode("dn")
	var old []*byte
	for gen := range int64(3) {
		want := payload(200<<10, gen)
		if err := dn.Store(1, want); err != nil {
			t.Fatal(err)
		}
		waitReleased(t, old) // the overwritten replica's
		if got, err := dn.Read(1); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("generation %d: err %v, equal %v", gen, err, bytes.Equal(got, want))
		}
		old = mappingsOf(dn)
	}
	dn.Delete(1)
	waitReleased(t, old)
	if m := mappedBytes(); m != mapped {
		t.Fatalf("storing, overwriting and deleting a replica mapped %d new bytes; want 0", m-mapped)
	}
}

// TestCachedExtentsOffHeap: filling 64 extents (16 MiB) of the block cache
// grows the Go heap by the entries and their index, not by the bytes.
func TestCachedExtentsOffHeap(t *testing.T) {
	const extents = 64
	c, cl, data := newCachedCluster(t, 4<<20, extents*extentSize, 1, 0)
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, extentSize)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for x := range int64(extents) {
		if _, err := r.ReadAt(buf, x*extentSize); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := c.BlockCache().Entries(); n != extents {
		t.Fatalf("%d extents resident; want %d", n, extents)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("caching %d MiB grew the heap by %d B", extents*extentSize>>20, grew)
	if grew >= 1<<20 {
		t.Fatalf("caching %d MiB of extents grew HeapAlloc by %d B; want < 1 MiB", extents*extentSize>>20, grew)
	}
	if !bytes.Equal(buf, data[len(data)-extentSize:]) {
		t.Fatal("the last extent read back wrong bytes")
	}
	r.Close()
}

// rssAnon returns the process's resident anonymous memory, in bytes.
func rssAnon(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no RssAnon line in /proc/self/status")
	return 0
}

// TestShedExtentsGiveTheirPagesBack: readers pin 64 extents (16 MiB) over a
// two-extent budget, then close. The arrays the cache sheds go back to the
// pool without their pages, all but the last, which the next fill takes, and
// the process's resident memory falls by about their size. A budget that
// shrinks sheds the same way.
func TestShedExtentsGiveTheirPagesBack(t *testing.T) {
	if runtime.GOOS != "linux" || raceEnabled {
		t.Skip("pooled pages go back to the operating system only on Linux, and not under the race detector, which poisons them instead")
	}
	const pinned = 64
	c, cl, data := newCachedCluster(t, 4<<20, pinned*extentSize, 1, 2*extentSize)
	bc := c.BlockCache()
	bare := func() int {
		memPool.mu.Lock()
		defer memPool.mu.Unlock()
		return len(memPool.bare[extentSize])
	}
	var readers []*Reader
	for x := range int64(pinned) {
		r, err := cl.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		views, err := r.RangeSlices(x*extentSize, extentSize)
		if err != nil || !bytes.Equal(joinViews(views), data[x*extentSize:(x+1)*extentSize]) {
			t.Fatalf("extent %d: err %v, or wrong bytes", x, err)
		}
		readers = append(readers, r)
	}
	bare0, rss0 := bare(), rssAnon(t)
	for _, r := range readers {
		r.Close()
	}
	checkRefsZero(t, bc)
	rss1 := rssAnon(t)
	shed := pinned - 2
	if got := bare() - bare0; got != shed-1 {
		t.Fatalf("%d of the %d arrays shed went back without their pages; want all but the last", got, shed)
	}
	t.Logf("shedding %d pinned extents (%d KiB) cut resident anonymous memory by %d KiB", shed, shed*extentSize>>10, (rss0-rss1)>>10)
	if rss0-rss1 < int64(shed)*extentSize/2 {
		t.Fatalf("shedding %d KiB of extents cut resident memory by %d KiB; want most of it", shed*extentSize>>10, (rss0-rss1)>>10)
	}

	c.SetBlockCacheCapacity(16 * extentSize)
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, extentSize)
	for x := range int64(16) {
		if _, err := r.ReadAt(buf, x*extentSize); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	bare0 = bare()
	c.SetBlockCacheCapacity(2 * extentSize)
	if got := bare() - bare0; got != 13 {
		t.Fatalf("shrinking the budget from 16 extents to 2 gave back %d arrays without their pages; want 13", got)
	}
}
