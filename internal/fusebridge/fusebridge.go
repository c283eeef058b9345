// Package fusebridge is the FUSE stand-in of the paper's §IV: "we use
// Filesystem in Userspace (FUSE) for a direct storage function ... to mount
// uploading folders on HDFS to reach the goal of Cloud distributed storage"
// (Figure 14).
//
// A Mount maps a directory-like namespace onto a subtree of HDFS: the
// website writes uploads through ordinary file operations and the bytes land
// in replicated HDFS blocks. The read side is OpenSeeker: an hdfs.Reader,
// an io.ReaderAt plus zero-copy range views, which the streaming layer
// serves Range requests from.
package fusebridge

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	gopath "path"
	"strings"

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

// abs converts a mount-relative name (fs.ValidPath rules) to an absolute
// HDFS path.
func (m *Mount) abs(name string) (string, error) {
	if !fs.ValidPath(name) {
		return "", fmt.Errorf("fusebridge: invalid path %q", name)
	}
	if name == "." {
		return m.root, nil
	}
	return m.root + "/" + name, nil
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

// WriteFileCtx is WriteFile of the concatenation of parts, linked to the
// trace span in ctx: the store records hdfs.write_file / hdfs.write_block
// spans under the caller's trace. The parts are stored without being joined
// (hdfs.Client.WriteFileCtx).
func (m *Mount) WriteFileCtx(ctx context.Context, name string, parts ...[]byte) error {
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
	return m.client.WriteFileCtx(ctx, p, m.replication, parts...)
}

// ReadFileCtx returns the full content of name, linked to the trace span in
// ctx.
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

// OpenSeeker opens name for random access (io.ReaderAt plus zero-copy range
// views), what the streaming layer needs for Range requests.
func (m *Mount) OpenSeeker(name string) (*hdfs.Reader, error) {
	return m.OpenSeekerCtx(context.Background(), name)
}

// OpenSeekerCtx is OpenSeeker linked to the trace span in ctx: block range
// reads through the returned reader record spans annotated with the
// extent-cache outcome under the caller's trace.
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
