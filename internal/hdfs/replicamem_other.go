//go:build !unix

package hdfs

// mapMemory returns n bytes for memPool. Without the anonymous mappings of
// replicamem_unix.go, replicas and cached extents live on the Go heap, pooled
// the same way.
func mapMemory(n int) ([]byte, error) { return make([]byte, n), nil }
