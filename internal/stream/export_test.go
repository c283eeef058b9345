package stream

import "net/http"

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// RebufferRatio is stall time over total session time (played + stalled).
func (r *ABRReport) RebufferRatio() float64 {
	total := r.PlayedSeconds + r.RebufferSeconds
	if total <= 0 {
		return 0
	}
	return r.RebufferSeconds / total
}

// Serve is ServeTagged for content named name: the validator is derived per
// call, which is what the Range and If-Range tests hold to net/http's.
func Serve(w http.ResponseWriter, r *http.Request, name string, content SliceRanger) (int64, error) {
	return ServeTagged(w, r, ETag(name, content.Size()), content)
}

// contentETag is ETag under the name its oracle test was written against.
func contentETag(name string, size int64) string { return ETag(name, size) }
