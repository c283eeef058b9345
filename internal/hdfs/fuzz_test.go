package hdfs

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReaderReadAt checks every (offset, length) window of a file with a
// partial final block against the in-memory oracle: exact bytes, exact
// short-read count, io.EOF exactly when the window runs past the end.
// Seeds cover block boundaries, EOF edges and degenerate windows; `go test`
// runs the seeds, `go test -fuzz=FuzzReaderReadAt` explores further.
func FuzzReaderReadAt(f *testing.F) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(2*testBlock+testBlock/3, 31) // partial final block
	if err := cl.WriteFile("/f", data, 2); err != nil {
		f.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		f.Fatal(err)
	}
	size := int64(len(data))
	f.Add(int64(0), 1)
	f.Add(int64(0), 0)
	f.Add(int64(testBlock-1), 2)           // crosses first boundary
	f.Add(int64(testBlock), testBlock)     // exactly the second block
	f.Add(size-1, 1)                       // last byte
	f.Add(size-1, 100)                     // short read + EOF
	f.Add(size, 10)                        // at EOF
	f.Add(size+1000, 10)                   // past EOF
	f.Add(int64(testBlock/2), 2*testBlock) // spans three blocks
	f.Add(int64(2*testBlock), testBlock)   // partial final block
	f.Fuzz(func(t *testing.T, off int64, length int) {
		if off < 0 || length < 0 || length > 4*testBlock {
			t.Skip()
		}
		buf := make([]byte, length)
		n, err := r.ReadAt(buf, off)
		if off >= size {
			if n != 0 || err != io.EOF {
				t.Fatalf("ReadAt(%d, %d) past EOF = (%d, %v), want (0, EOF)", off, length, n, err)
			}
			return
		}
		want := size - off
		if want > int64(length) {
			want = int64(length)
		}
		if int64(n) != want {
			t.Fatalf("ReadAt(%d, %d) = %d bytes, want %d", off, length, n, want)
		}
		if n < length {
			if err != io.EOF {
				t.Fatalf("short ReadAt(%d, %d) err = %v, want EOF", off, length, err)
			}
		} else if err != nil {
			t.Fatalf("full ReadAt(%d, %d) err = %v", off, length, err)
		}
		if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d, %d) returned wrong bytes", off, length)
		}
	})
}

// TestReadAtEmptyFile pins the degenerate cases: a zero-byte file reads as
// immediate EOF through every API.
func TestReadAtEmptyFile(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/empty", nil, 1); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFile empty = (%d bytes, %v)", len(got), err)
	}
	r, err := cl.Open("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 {
		t.Fatalf("Size = %d", r.Size())
	}
	buf := make([]byte, 10)
	if n, err := r.ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt = (%d, %v), want (0, EOF)", n, err)
	}
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestReadAtRejectsNegativeOffset pins the io.ReaderAt contract edge.
func TestReadAtRejectsNegativeOffset(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(100, 32), 1); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}
