//go:build unix

package hdfs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// mappedBytes returns the replica memory ever mapped.
func mappedBytes() int64 {
	p := &replicaPool
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mappedBytes
}

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

// waitReleased collects until every mapping named is back on a free list: a
// mapping goes back only once a collection has found its record unreachable
// and the finalizer has run.
func waitReleased(t *testing.T, mappings []*byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := &replicaPool
		free := make(map[*byte]bool)
		p.mu.Lock()
		for _, list := range p.free {
			for _, m := range list {
				free[&m[0]] = true
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

// TestReplicaMemoryRecycled: every mapping of a dropped cluster goes back on
// a free list, and a second cluster of the same shape maps no new memory; an
// overwriting Store and a Delete each give the old mapping back.
func TestReplicaMemoryRecycled(t *testing.T) {
	build := func() []*byte {
		c := NewCluster(3, 1<<20)
		cl := c.Client("")
		for i := range 4 {
			if err := cl.WriteFile(fmt.Sprintf("/f%d", i), payload(3<<20+i*100<<10, int64(i)), 2); err != nil {
				t.Fatal(err)
			}
		}
		return mappingsOf(c.DataNode("dn0"), c.DataNode("dn1"), c.DataNode("dn2"))
	}
	first := build()
	if len(first) != 2*(4*3+3) {
		t.Fatalf("the cluster holds %d mappings; want one per replica, %d", len(first), 2*(4*3+3))
	}
	waitReleased(t, first)
	mapped := mappedBytes()
	waitReleased(t, build())
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
