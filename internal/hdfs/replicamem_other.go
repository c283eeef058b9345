//go:build !unix

package hdfs

// newBlockData returns a record whose data holds n bytes. Without the
// anonymous mappings of replicamem_unix.go, replicas live on the Go heap.
func newBlockData(n int, chunk int64) (*blockData, error) {
	return &blockData{data: make([]byte, n), chunk: chunk}, nil
}
