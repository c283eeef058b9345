package image

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"fmt"
	"sort"
)

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
