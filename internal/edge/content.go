package edge

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Content is what a cache entry holds, adapted to the slice-append contract
// of the zero-copy serving path (it satisfies stream.SliceRanger without
// importing stream): views of memory, either one view of bytes it owns or
// views that its pin keeps valid. A warm edge hit therefore writes cache
// memory straight to the response, exactly like an origin block hit does.
type Content struct {
	views  [][]byte // owned bytes are one view; pinned views stay valid until pin is closed
	size   int64
	charge int64     // what the cache's budget charges: size, or more for a pin (see Pin)
	pin    io.Closer // nil for owned bytes, which need no reference count
	refs   atomic.Int32
	etag   string
}

// NewContent wraps owned bytes.
func NewContent(data []byte) *Content {
	n := int64(len(data))
	return &Content{views: [][]byte{data}, size: n, charge: n}
}

// Pin wraps views of memory that stays valid until pin is closed: a
// segment's block-cache extents and the reader holding them. held is the
// memory the pin keeps alive (the extents' whole arrays). The cache's budget
// charges the content its length, or half of held when that is more, so
// what resident entries pin stays within twice the budget: no more than the
// heap copies they replace could occupy under the collector's default
// headroom, and a segment that fills at least half its extents (a 1 MB one
// fills four 256 KiB extents) is charged exactly its length. etag is the
// content's validator, worked out once here so that no hit computes it. The
// content carries one reference, the caller's; the last Release closes the
// pin.
func Pin(views [][]byte, pin io.Closer, held int64, etag string) *Content {
	c := &Content{views: views, pin: pin, etag: etag}
	for _, v := range views {
		c.size += int64(len(v))
	}
	c.charge = max(c.size, held/2)
	c.refs.Store(1)
	return c
}

// retain takes n more references on pinned content.
func (c *Content) retain(n int32) {
	if c.pin != nil {
		c.refs.Add(n)
	}
}

// Release drops one reference; the last closes the pin, after which the
// views must not be used.
func (c *Content) Release() {
	if c.pin != nil && c.refs.Add(-1) == 0 {
		c.pin.Close()
	}
}

// ETag is the validator the content was pinned with.
func (c *Content) ETag() string { return c.etag }

// Size reports the content length.
func (c *Content) Size() int64 { return c.size }

// AppendRangeSlices appends views of [off, off+length) (clamped to EOF) to
// dst, one per view the window touches.
func (c *Content) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	if off < 0 || length < 0 || off > c.size {
		return dst, fmt.Errorf("edge: range [%d,+%d) out of [0,%d)", off, length, c.size)
	}
	// off and end count from the start of the view in hand.
	end := min(off+length, c.size)
	for _, v := range c.views {
		n := int64(len(v))
		if off < min(n, end) {
			dst = append(dst, v[off:min(n, end)])
		}
		off, end = max(off-n, 0), end-n
		if end <= 0 {
			break
		}
	}
	return dst, nil
}
