package edge

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// Reset re-points the adapter at new bytes.
func (c *Content) Reset(data []byte) { c.data = data }
