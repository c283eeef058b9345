package edge

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// Reset re-points owned content at new bytes.
func (c *Content) Reset(data []byte) {
	c.views[0], c.size = data, int64(len(data))
	c.charge = c.size
}
