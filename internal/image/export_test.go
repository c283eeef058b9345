package image

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"sort"
)

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
