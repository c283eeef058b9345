// Package fusebridge is the FUSE stand-in of the paper's §IV: "we use
// Filesystem in Userspace (FUSE) for a direct storage function ... to mount
// uploading folders on HDFS to reach the goal of Cloud distributed storage"
// (Figure 14).
//
// A Mount maps a directory-like namespace onto a subtree of HDFS: the
// website writes uploads through ordinary file operations and the bytes land
// in replicated HDFS blocks. The read side implements io/fs.FS (verified
// against testing/fstest), so any Go code that consumes a filesystem —
// including net/http file serving — can run directly against HDFS.
package fusebridge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	gopath "path"
	"strings"
	"time"

	"videocloud/internal/hdfs"
)

// Mount exposes the HDFS subtree rooted at root as a filesystem.
type Mount struct {
	client      *hdfs.Client
	root        string
	replication int
}

// New mounts the HDFS subtree at root (created if absent) with the given
// default replication for new files.
func New(client *hdfs.Client, root string, replication int) (*Mount, error) {
	if replication < 1 {
		return nil, fmt.Errorf("fusebridge: replication %d < 1", replication)
	}
	if err := client.Mkdir(root); err != nil {
		return nil, err
	}
	return &Mount{client: client, root: gopath.Clean(root), replication: replication}, nil
}

// abs converts a mount-relative fs.FS name to an absolute HDFS path.
func (m *Mount) abs(name string) (string, error) {
	if !fs.ValidPath(name) {
		return "", fmt.Errorf("fusebridge: invalid path %q", name)
	}
	if name == "." {
		return m.root, nil
	}
	return m.root + "/" + name, nil
}

// Open implements fs.FS. Files resolve status and block layout in a single
// batched NameNode call (Client.Open); only the directory branch pays a
// second round trip for the listing.
func (m *Mount) Open(name string) (fs.File, error) {
	p, err := m.abs(name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	r, err := m.client.Open(p)
	if errors.Is(err, hdfs.ErrIsDirectory) {
		entries, lerr := m.client.List(p)
		if lerr != nil {
			return nil, &fs.PathError{Op: "open", Path: name, Err: mapErr(lerr)}
		}
		return &dirFile{name: gopath.Base(name), entries: entries}, nil
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: mapErr(err)}
	}
	return &file{name: gopath.Base(name), st: r.Stat(), r: r}, nil
}

func mapErr(err error) error {
	switch {
	case errors.Is(err, hdfs.ErrNotFound):
		return fs.ErrNotExist
	case errors.Is(err, hdfs.ErrExists):
		return fs.ErrExist
	default:
		return err
	}
}

// WriteFile stores data at name (parents auto-created), replacing any
// existing file — the semantics a FUSE rewrite maps to create-over on HDFS.
func (m *Mount) WriteFile(name string, data []byte) error {
	return m.WriteFileCtx(context.Background(), name, data)
}

// WriteFileCtx is WriteFile linked to the trace span in ctx: the store
// records hdfs.write_file / hdfs.write_block spans under the caller's trace.
func (m *Mount) WriteFileCtx(ctx context.Context, name string, data []byte) error {
	p, err := m.abs(name)
	if err != nil {
		return err
	}
	if st, serr := m.client.Stat(p); serr == nil {
		if st.IsDir {
			return fmt.Errorf("fusebridge: %q is a directory", name)
		}
		if rerr := m.client.Remove(p); rerr != nil {
			return rerr
		}
	}
	return m.client.WriteFileCtx(ctx, p, data, m.replication)
}

// Create opens a streaming writer at name. The file becomes visible when
// the writer is closed.
func (m *Mount) Create(name string) (io.WriteCloser, error) {
	p, err := m.abs(name)
	if err != nil {
		return nil, err
	}
	return m.client.Create(p, m.replication)
}

// ReadFile returns the full content of name.
func (m *Mount) ReadFile(name string) ([]byte, error) {
	return m.ReadFileCtx(context.Background(), name)
}

// ReadFileCtx is ReadFile linked to the trace span in ctx.
func (m *Mount) ReadFileCtx(ctx context.Context, name string) ([]byte, error) {
	p, err := m.abs(name)
	if err != nil {
		return nil, err
	}
	data, err := m.client.ReadFileCtx(ctx, p)
	if err != nil {
		return nil, mapPathErr("read", name, err)
	}
	return data, nil
}

func mapPathErr(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: mapErr(err)}
}

// Remove deletes a file or empty directory.
func (m *Mount) Remove(name string) error {
	p, err := m.abs(name)
	if err != nil {
		return err
	}
	if err := m.client.Remove(p); err != nil {
		return mapPathErr("remove", name, err)
	}
	return nil
}

// Mkdir creates a directory (and parents).
func (m *Mount) Mkdir(name string) error {
	p, err := m.abs(name)
	if err != nil {
		return err
	}
	return m.client.Mkdir(p)
}

// Exists reports whether name exists under the mount.
func (m *Mount) Exists(name string) bool {
	p, err := m.abs(name)
	if err != nil {
		return false
	}
	_, err = m.client.Stat(p)
	return err == nil
}

// OpenSeeker opens name for random access (io.ReadSeeker + io.ReaderAt),
// the interface the streaming layer needs for Range requests.
func (m *Mount) OpenSeeker(name string) (*hdfs.Reader, error) {
	return m.OpenSeekerCtx(context.Background(), name)
}

// OpenSeekerCtx is OpenSeeker linked to the trace span in ctx: block range
// reads and prefetches through the returned reader record spans annotated
// with the extent-cache outcome under the caller's trace.
func (m *Mount) OpenSeekerCtx(ctx context.Context, name string) (*hdfs.Reader, error) {
	p, err := m.abs(name)
	if err != nil {
		return nil, err
	}
	r, err := m.client.OpenCtx(ctx, p)
	if err != nil {
		return nil, mapPathErr("open", name, err)
	}
	return r, nil
}

// ---- fs.File implementations ----

type fileInfo struct {
	name string
	size int64
	dir  bool
}

func (fi fileInfo) Name() string       { return fi.name }
func (fi fileInfo) Size() int64        { return fi.size }
func (fi fileInfo) ModTime() time.Time { return time.Time{} }
func (fi fileInfo) IsDir() bool        { return fi.dir }
func (fi fileInfo) Sys() any           { return nil }
func (fi fileInfo) Mode() fs.FileMode {
	if fi.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

type file struct {
	name string
	st   hdfs.FileStatus
	r    *hdfs.Reader
}

func (f *file) Stat() (fs.FileInfo, error) {
	return fileInfo{name: f.name, size: f.st.Size}, nil
}
func (f *file) Read(p []byte) (int, error)                { return f.r.Read(p) }
func (f *file) Seek(off int64, whence int) (int64, error) { return f.r.Seek(off, whence) }
func (f *file) ReadAt(p []byte, off int64) (int, error)   { return f.r.ReadAt(p, off) }

// Close releases the reader's shared block-cache references.
func (f *file) Close() error { return f.r.Close() }

type dirFile struct {
	name    string
	entries []hdfs.FileStatus
	pos     int
}

func (d *dirFile) Stat() (fs.FileInfo, error) {
	return fileInfo{name: d.name, dir: true}, nil
}

func (d *dirFile) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.name, Err: errors.New("is a directory")}
}

func (d *dirFile) Close() error { return nil }

type dirEntry struct{ fileInfo }

func (e dirEntry) Type() fs.FileMode          { return e.Mode().Type() }
func (e dirEntry) Info() (fs.FileInfo, error) { return e.fileInfo, nil }

// ReadDir implements fs.ReadDirFile.
func (d *dirFile) ReadDir(n int) ([]fs.DirEntry, error) {
	rest := d.entries[d.pos:]
	if n <= 0 {
		d.pos = len(d.entries)
		out := make([]fs.DirEntry, len(rest))
		for i, st := range rest {
			out[i] = dirEntry{fileInfo{name: gopath.Base(st.Path), size: st.Size, dir: st.IsDir}}
		}
		return out, nil
	}
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if n > len(rest) {
		n = len(rest)
	}
	out := make([]fs.DirEntry, n)
	for i := 0; i < n; i++ {
		st := rest[i]
		out[i] = dirEntry{fileInfo{name: gopath.Base(st.Path), size: st.Size, dir: st.IsDir}}
	}
	d.pos += n
	return out, nil
}

// Walk lists every file under dir (recursively), mount-relative, sorted by
// the underlying List order.
func (m *Mount) Walk(dir string) ([]string, error) {
	p, err := m.abs(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	var walk func(abs string) error
	walk = func(abs string) error {
		entries, err := m.client.List(abs)
		if err != nil {
			return err
		}
		for _, st := range entries {
			if st.IsDir {
				if err := walk(st.Path); err != nil {
					return err
				}
				continue
			}
			rel := strings.TrimPrefix(st.Path, m.root+"/")
			out = append(out, rel)
		}
		return nil
	}
	if err := walk(p); err != nil {
		return nil, err
	}
	return out, nil
}
