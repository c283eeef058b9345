package image

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"fmt"
	"sort"
)

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

// Blocks returns the number of blocks in the image.
func (img *Image) Blocks() int64 { return img.Size / BlockSize }

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

// WriteBlock stores new content for block idx in this image's local layer.
// data must be exactly BlockSize bytes.
func (img *Image) WriteBlock(idx int64, data []byte) error {
	if idx < 0 || idx >= img.Blocks() {
		return fmt.Errorf("image: block %d out of range [0,%d)", idx, img.Blocks())
	}
	if len(data) != BlockSize {
		return fmt.Errorf("image: write of %d bytes, want %d", len(data), BlockSize)
	}
	cp := make([]byte, BlockSize)
	copy(cp, data)
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.written == nil {
		img.written = make(map[int64][]byte)
	}
	img.written[idx] = cp
	return nil
}

// StoredBlocks returns the number of blocks this image holds in its own
// layer, the rest being pristine or read through its backing chain.
func (img *Image) StoredBlocks() int {
	img.mu.RLock()
	defer img.mu.RUnlock()
	return len(img.written)
}

// AllocatedBytes returns the bytes physically stored by this image alone:
// the full size for raw images, only locally written blocks for clones.
// This is what provisioning has to copy or create.
func (img *Image) AllocatedBytes() int64 {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.Format == Raw {
		return img.Size
	}
	return int64(len(img.written)) * BlockSize
}

// List returns all image names, sorted.
func (c *Catalog) List() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.images))
	for name := range c.images {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
