package edge

import "fmt"

// Content adapts a cached blob to the slice-append contract of the zero-copy
// serving path (it satisfies stream.SliceRanger without importing stream). A
// warm edge hit therefore writes cache memory straight to the response, exactly
// like an origin block hit does. Reset lets a handler reuse one Content per
// request without allocating.
type Content struct {
	data []byte
}

// NewContent wraps cached bytes.
func NewContent(data []byte) *Content { return &Content{data: data} }

// Size reports the blob length.
func (c *Content) Size() int64 { return int64(len(c.data)) }

// AppendRangeSlices appends a view of [off, off+length) (clamped to EOF)
// to dst — a single slice, since cached objects are contiguous.
func (c *Content) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	size := int64(len(c.data))
	if off < 0 || length < 0 || off > size {
		return dst, fmt.Errorf("edge: range [%d,+%d) out of [0,%d)", off, length, size)
	}
	end := off + length
	if end > size {
		end = size
	}
	if off == end {
		return dst, nil
	}
	return append(dst, c.data[off:end]), nil
}
