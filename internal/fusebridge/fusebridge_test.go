package fusebridge

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"testing"

	"videocloud/internal/hdfs"
)

var ctx = context.Background()

func newMount(t *testing.T) *Mount {
	t.Helper()
	c := hdfs.NewCluster(3, 64*1024)
	m, err := New(c.Client(""), "/uploads", 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteReadThroughMount(t *testing.T) {
	m := newMount(t)
	data := bytes.Repeat([]byte("frame"), 50000) // multi-block
	if err := m.WriteFile("videos/clip.mp4", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFileCtx(ctx, "videos/clip.mp4")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if !m.Exists("videos/clip.mp4") || m.Exists("videos/ghost.mp4") {
		t.Fatal("Exists wrong")
	}
}

func TestOverwriteReplaces(t *testing.T) {
	m := newMount(t)
	m.WriteFile("f.txt", []byte("one"))
	if err := m.WriteFile("f.txt", []byte("two-longer")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFileCtx(ctx, "f.txt")
	if string(got) != "two-longer" {
		t.Fatalf("got %q", got)
	}
}

// TestFSInterface: the mount's errors follow io/fs conventions — a missing
// file is fs.ErrNotExist inside an *fs.PathError, and a name outside
// fs.ValidPath is refused.
func TestFSInterface(t *testing.T) {
	m := newMount(t)
	var pe *fs.PathError
	if _, err := m.OpenSeeker("nope.txt"); !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) {
		t.Fatalf("missing open: %v", err)
	}
	if _, err := m.ReadFileCtx(ctx, "nope.txt"); !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) {
		t.Fatalf("missing read: %v", err)
	}
	if _, err := m.OpenSeeker("../escape"); err == nil {
		t.Fatal("path escape accepted")
	}
}

func TestReadAtThroughMount(t *testing.T) {
	m := newMount(t)
	data := make([]byte, 200000)
	for i := range data {
		data[i] = byte(i)
	}
	m.WriteFile("v.mp4", data)
	r, err := m.OpenSeeker("v.mp4")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 150000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[150000:150100]) {
		t.Fatal("mid-file read returned wrong bytes")
	}
}

func TestRemoveAndWalk(t *testing.T) {
	m := newMount(t)
	m.WriteFile("keep/x.bin", []byte("x"))
	m.WriteFile("keep/y.bin", []byte("y"))
	m.WriteFile("drop.bin", []byte("z"))
	files, err := m.Walk(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("Walk = %v", files)
	}
	if err := m.Remove("drop.bin"); err != nil {
		t.Fatal(err)
	}
	files, _ = m.Walk(".")
	if len(files) != 2 {
		t.Fatalf("after remove: %v", files)
	}
	if err := m.Remove("drop.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDataLandsInHDFSReplicated(t *testing.T) {
	c := hdfs.NewCluster(3, 64*1024)
	m, _ := New(c.Client(""), "/uploads", 3)
	m.WriteFile("v.mp4", bytes.Repeat([]byte("a"), 70000))
	blocks, err := c.Client("").BlockLocations("/uploads/v.mp4")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("%d blocks", len(blocks))
	}
	for _, b := range blocks {
		if len(b.Locations) != 3 {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Locations))
		}
	}
	// Survives a datanode death — the paper's stated reason for HDFS.
	c.KillDataNode(blocks[0].Locations[0])
	got, err := m.ReadFileCtx(ctx, "v.mp4")
	if err != nil || len(got) != 70000 {
		t.Fatalf("read after node death: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	c := hdfs.NewCluster(1, 64*1024)
	if _, err := New(c.Client(""), "/m", 0); err == nil {
		t.Fatal("replication 0 accepted")
	}
}
