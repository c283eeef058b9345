// Package image implements the VM disk-image repository: a catalog of base
// images plus qcow2-style copy-on-write clones. The paper's deployment runs
// "multiple virtual machines using the same image" (§II-C); COW is what makes
// that cheap, and experiment E6b measures COW versus full-clone provisioning.
//
// Images hold real (deterministic, seed-generated) block content so the COW
// read path — local block if written, else fall through the backing chain —
// is exercised by data, not assumed.
package image

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// BlockSize is the image block granularity in bytes (qcow2's default
// cluster size is 64 KiB).
const BlockSize = 64 * 1024

// Errors returned by the catalog.
var (
	ErrNotFound  = errors.New("image: not found")
	ErrDuplicate = errors.New("image: name already in use")
	ErrInUse     = errors.New("image: has dependent clones")
)

// Format distinguishes full (raw) images from copy-on-write clones.
type Format int

// Image formats.
const (
	Raw Format = iota
	COW
)

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == Raw {
		return "raw"
	}
	return "cow"
}

// Image is a disk image. Raw images generate their pristine content
// deterministically from their seed; COW images hold only locally written
// blocks and delegate the rest to their backing image.
type Image struct {
	Name   string
	Format Format
	Size   int64 // bytes; always a multiple of BlockSize

	mu      sync.RWMutex
	seed    uint64
	backing *Image
	written map[int64][]byte // block index -> block content
	clones  int
}

// Blocks returns the number of blocks in the image.
func (img *Image) Blocks() int64 { return img.Size / BlockSize }

// Backing returns the backing image for COW clones, nil for raw images.
func (img *Image) Backing() *Image {
	img.mu.RLock()
	defer img.mu.RUnlock()
	return img.backing
}

// pristine fills dst with the deterministic base content of block idx.
func (img *Image) pristine(idx int64, dst []byte) {
	// xorshift64* keyed by (seed, block): stable, cheap, and distinct per
	// block so tests can detect cross-block mixups.
	x := img.seed ^ uint64(idx+1)*0x2545f4914f6cdd1d
	for i := 0; i < len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(v)
			v >>= 8
		}
	}
}

// ReadBlock returns the content of block idx, following the backing chain
// for blocks this image has not written locally.
func (img *Image) ReadBlock(idx int64) ([]byte, error) {
	if idx < 0 || idx >= img.Blocks() {
		return nil, fmt.Errorf("image: block %d out of range [0,%d)", idx, img.Blocks())
	}
	img.mu.RLock()
	if b, ok := img.written[idx]; ok {
		out := make([]byte, BlockSize)
		copy(out, b)
		img.mu.RUnlock()
		return out, nil
	}
	backing := img.backing
	img.mu.RUnlock()
	if backing != nil {
		return backing.ReadBlock(idx)
	}
	out := make([]byte, BlockSize)
	img.pristine(idx, out)
	return out, nil
}

// Catalog is the image repository (OpenNebula's image datastore; OpenStack
// calls the equivalent Glance).
type Catalog struct {
	mu     sync.Mutex
	images map[string]*Image
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{images: make(map[string]*Image)}
}

// Register creates a raw base image of size bytes (rounded up to a whole
// block) whose content derives from seed.
func (c *Catalog) Register(name string, size int64, seed uint64) (*Image, error) {
	if name == "" {
		return nil, fmt.Errorf("image: empty name")
	}
	if size <= 0 {
		return nil, fmt.Errorf("image: non-positive size %d", size)
	}
	blocks := (size + BlockSize - 1) / BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.images[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	img := &Image{Name: name, Format: Raw, Size: blocks * BlockSize, seed: seed}
	c.images[name] = img
	return img, nil
}

// Clone creates a copy-on-write child of base. Provisioning cost is
// metadata only — AllocatedBytes of the clone starts at zero.
func (c *Catalog) Clone(base, name string) (*Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	parent, ok := c.images[base]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, base)
	}
	if _, dup := c.images[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	img := &Image{Name: name, Format: COW, Size: parent.Size, backing: parent}
	parent.mu.Lock()
	parent.clones++
	parent.mu.Unlock()
	c.images[name] = img
	return img, nil
}

// FullClone creates an independent raw copy of base, the expensive
// provisioning path E6b compares against Clone. The copy takes the pristine
// content of base's chain from the chain's root seed and a copy of every
// block written anywhere in the chain, the nearest layer's write winning, so
// it costs the written blocks, not the image's size. The catalog lists the
// copy only once it is complete.
func (c *Catalog) FullClone(base, name string) (*Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	parent, ok := c.images[base]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, base)
	}
	if _, dup := c.images[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	img := &Image{Name: name, Format: Raw, Size: parent.Size, written: make(map[int64][]byte)}
	for layer := parent; layer != nil; {
		layer.mu.RLock()
		for idx, b := range layer.written {
			if _, nearer := img.written[idx]; !nearer {
				img.written[idx] = bytes.Clone(b)
			}
		}
		img.seed = layer.seed
		next := layer.backing
		layer.mu.RUnlock()
		layer = next
	}
	c.images[name] = img
	return img, nil
}

// Get returns the named image.
func (c *Catalog) Get(name string) (*Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return img, nil
}

// Delete removes an image. Images with live clones cannot be removed.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.images[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	img.mu.RLock()
	clones := img.clones
	backing := img.backing
	img.mu.RUnlock()
	if clones > 0 {
		return fmt.Errorf("%w: %q has %d clones", ErrInUse, name, clones)
	}
	if backing != nil {
		backing.mu.Lock()
		backing.clones--
		backing.mu.Unlock()
	}
	delete(c.images, name)
	return nil
}
