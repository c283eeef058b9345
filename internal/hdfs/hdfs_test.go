package hdfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

const testBlock = 64 * 1024 // 64 KiB blocks keep tests light

func payload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(3*testBlock+777, 1) // 4 blocks, last partial
	if err := cl.WriteFile("/videos/a.mp4", data, 3); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/videos/a.mp4")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	st, err := c.NameNode().Stat("/videos/a.mp4")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len(data)) || st.Blocks != 4 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestReplicationPlacement(t *testing.T) {
	c := NewCluster(5, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(testBlock, 2), 3); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	if len(blocks) != 1 {
		t.Fatalf("%d blocks", len(blocks))
	}
	if len(blocks[0].Locations) != 3 {
		t.Fatalf("replicas = %v, want 3 distinct nodes", blocks[0].Locations)
	}
	seen := map[string]bool{}
	for _, loc := range blocks[0].Locations {
		if seen[loc] {
			t.Fatalf("duplicate replica node %s", loc)
		}
		seen[loc] = true
		if !c.DataNode(loc).Has(blocks[0].ID) {
			t.Fatalf("%s does not actually hold the block", loc)
		}
	}
}

func TestWriteLocalityPrefersClientNode(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("dn2")
	if err := cl.WriteFile("/f", payload(2*testBlock, 3), 2); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	for _, b := range blocks {
		if b.Locations[0] != "dn2" {
			t.Fatalf("first replica on %s, want client-local dn2", b.Locations[0])
		}
	}
}

func TestReplicationFactorOne(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(testBlock/2, 4), 1); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	if len(blocks[0].Locations) != 1 {
		t.Fatalf("replicas = %v", blocks[0].Locations)
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(100, 5), 3); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	if len(blocks[0].Locations) != 2 {
		t.Fatalf("replicas = %v, want capped at 2", blocks[0].Locations)
	}
}

func TestNamespaceOperations(t *testing.T) {
	c := NewCluster(2, testBlock)
	nn := c.NameNode()
	cl := c.Client("")
	if err := nn.Mkdir("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/a/b/f1", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/a/b/f2", []byte("yy"), 1); err != nil {
		t.Fatal(err)
	}
	ls, err := nn.List("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 || ls[0].Path != "/a/b/c" || !ls[0].IsDir || ls[1].Path != "/a/b/f1" || ls[2].Size != 2 {
		t.Fatalf("List = %+v", ls)
	}
	// Errors.
	if _, err := nn.List("/a/b/f1"); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("List file: %v", err)
	}
	if _, err := nn.Stat("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat ghost: %v", err)
	}
	if err := cl.WriteFile("/a/b/f1", []byte("x"), 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := nn.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty dir: %v", err)
	}
	if _, err := cl.ReadFile("/a/b"); !errors.Is(err, ErrIsDirectory) {
		t.Fatalf("read dir: %v", err)
	}
	if err := nn.Mkdir("relative/path"); err == nil {
		t.Fatal("relative path accepted")
	}
	if err := nn.Create("/f", 0); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("rf=0: %v", err)
	}
}

func TestDeleteReclaimsBlocks(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(2*testBlock, 6)
	cl.WriteFile("/f", data, 2)
	used := int64(0)
	for i := 0; i < 3; i++ {
		used += c.DataNode([]string{"dn0", "dn1", "dn2"}[i]).Used()
	}
	if used != int64(2*len(data)) { // RF=2
		t.Fatalf("used = %d, want %d", used, 2*len(data))
	}
	if err := c.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"dn0", "dn1", "dn2"} {
		if c.DataNode(n).Used() != 0 {
			t.Fatalf("%s still stores %d bytes", n, c.DataNode(n).Used())
		}
	}
	if _, err := cl.ReadFile("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read deleted: %v", err)
	}
}

func TestUnderConstructionInvisible(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	w, err := cl.Create("/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(payload(testBlock, 7))
	if _, err := cl.ReadFile("/f"); !errors.Is(err, ErrFileOpen) {
		t.Fatalf("read open file: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	// Double close is a no-op; write after close fails.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestDataNodeFailureReadFailover(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(2*testBlock+5, 8)
	cl.WriteFile("/f", data, 2)
	// Kill one replica holder of the first block.
	blocks, _ := cl.BlockLocations("/f")
	if err := c.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/f")
	if err != nil {
		t.Fatalf("read after single failure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read corrupted data")
	}
}

func TestReReplicationAfterNodeDeath(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	data := payload(4*testBlock, 9)
	cl.WriteFile("/f", data, 3)
	if under := c.NameNode().UnderReplicated(3); len(under) != 0 {
		t.Fatalf("under-replicated before failure: %v", under)
	}
	c.KillDataNode("dn0")
	under := c.NameNode().UnderReplicated(3)
	if len(under) == 0 {
		t.Fatal("no blocks under-replicated after killing a node")
	}
	repaired := c.RepairAll()
	if repaired == 0 {
		t.Fatal("repair did nothing")
	}
	if under := c.NameNode().UnderReplicated(3); len(under) != 0 {
		t.Fatalf("still under-replicated after repair: %v", under)
	}
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data integrity after repair: %v", err)
	}
	if got := c.Metrics().Counter("blocks_replicated").Value(); got == 0 {
		t.Fatal("metrics missed the repair")
	}
}

func TestTotalLossIsReported(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	cl.WriteFile("/f", payload(testBlock, 10), 1) // RF=1: one replica
	blocks, _ := cl.BlockLocations("/f")
	c.KillDataNode(blocks[0].Locations[0])
	if _, err := cl.ReadFile("/f"); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("total loss read: %v", err)
	}
}

func TestReviveRestoresReplicas(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	data := payload(testBlock, 11)
	cl.WriteFile("/f", data, 1)
	blocks, _ := cl.BlockLocations("/f")
	holder := blocks[0].Locations[0]
	c.KillDataNode(holder)
	if _, err := cl.ReadFile("/f"); err == nil {
		t.Fatal("read should fail while node is down")
	}
	c.ReviveDataNode(holder)
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after revive: %v", err)
	}
}

func TestChecksumDetectionAndRepair(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(testBlock, 12)
	cl.WriteFile("/f", data, 2)
	blocks, _ := cl.BlockLocations("/f")
	bad := blocks[0].Locations[0]
	if err := c.DataNode(bad).Corrupt(blocks[0].ID); err != nil {
		t.Fatal(err)
	}
	// Read succeeds via the healthy replica and reports the corruption.
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with corrupt replica: %v", err)
	}
	if c.Metrics().Counter("corrupt_replicas_reported").Value() == 0 {
		t.Fatal("corruption not reported")
	}
	// Repair restores RF=2 on a clean node.
	c.RepairAll()
	blocks, _ = cl.BlockLocations("/f")
	if len(blocks[0].Locations) != 2 {
		t.Fatalf("locations after repair = %v", blocks[0].Locations)
	}
	for _, loc := range blocks[0].Locations {
		if loc == bad {
			t.Fatal("corrupt replica still listed")
		}
	}
}

func TestReaderReadAt(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(3*testBlock+100, 13)
	cl.WriteFile("/v.mp4", data, 2)
	r, err := cl.Open("/v.mp4")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d", r.Size())
	}
	// The whole file in one window.
	all := make([]byte, len(data))
	if _, err := r.ReadAt(all, 0); err != nil || !bytes.Equal(all, data) {
		t.Fatalf("whole-file read: %v", err)
	}
	// A mid-block offset (a time-bar drag), read across a block boundary.
	off := int64(testBlock + testBlock/2)
	buf := make([]byte, testBlock) // spans into block 3
	n, err := r.ReadAt(buf, off)
	if err != nil {
		t.Fatalf("mid-block read: %v (n=%d)", err, n)
	}
	if !bytes.Equal(buf, data[off:off+int64(testBlock)]) {
		t.Fatal("mid-block read returned wrong bytes")
	}
	// The last ten bytes.
	tail := make([]byte, 10)
	if _, err := r.ReadAt(tail, int64(len(data)-10)); err != nil || !bytes.Equal(tail, data[len(data)-10:]) {
		t.Fatalf("tail read: %v", err)
	}
	// EOF past end.
	if _, err := r.ReadAt(buf, int64(len(data))); err != io.EOF {
		t.Fatalf("ReadAt past EOF: %v", err)
	}
}

// Property: random (offset, length) ReadAt windows always return exactly the
// file's bytes.
func TestPropertyReadAtWindows(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(5*testBlock/2, 14)
	cl.WriteFile("/f", data, 2)
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, length uint16) bool {
		o := int64(off) % int64(len(data))
		l := int(length)%8192 + 1
		buf := make([]byte, l)
		n, err := r.ReadAt(buf, o)
		if err != nil && err != io.EOF {
			return false
		}
		want := len(data) - int(o)
		if want > l {
			want = l
		}
		if n != want {
			return false
		}
		return bytes.Equal(buf[:n], data[o:int(o)+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any write size round-trips and block accounting matches.
func TestPropertyWriteSizes(t *testing.T) {
	f := func(sz uint32, seed int64) bool {
		n := int(sz % (4 * testBlock))
		c := NewCluster(3, testBlock)
		cl := c.Client("")
		data := payload(n, seed)
		if err := cl.WriteFile("/f", data, 2); err != nil {
			return false
		}
		got, err := cl.ReadFile("/f")
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		st, _ := c.NameNode().Stat("/f")
		wantBlocks := (n + testBlock - 1) / testBlock
		return st.Size == int64(n) && st.Blocks == wantBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDataNodeDirectOps(t *testing.T) {
	dn := NewDataNode("dn0")
	if dn.Name() != "dn0" {
		t.Fatal("name")
	}
	if err := dn.Store(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := dn.Read(1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read: %v %q", err, got)
	}
	// Returned slice is a copy.
	got[0] = 'X'
	again, _ := dn.Read(1)
	if string(again) != "hello" {
		t.Fatal("Read aliases storage")
	}
	if _, err := dn.Read(99); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("missing block: %v", err)
	}
	part := make([]byte, 3)
	if _, err := dn.ReadRange(1, 99, part); err == nil {
		t.Fatal("out-of-range ReadRange accepted")
	}
	if n, err := dn.ReadRange(1, 1, part); err != nil || string(part[:n]) != "ell" {
		t.Fatalf("ReadRange: %v %q", err, part[:n])
	}
	if n, err := dn.ReadRange(1, 3, part); err != nil || string(part[:n]) != "lo" {
		t.Fatalf("ReadRange past the block end: %v %q, want the 2 bytes there", err, part[:n])
	}
	dn.SetDown(true)
	if _, err := dn.Read(1); !errors.Is(err, ErrDown) {
		t.Fatalf("down read: %v", err)
	}
	if err := dn.Store(2, []byte("x")); !errors.Is(err, ErrDown) {
		t.Fatalf("down store: %v", err)
	}
	dn.SetDown(false)
	dn.Delete(1)
	if dn.Has(1) || dn.Used() != 0 {
		t.Fatal("delete left data")
	}
}
