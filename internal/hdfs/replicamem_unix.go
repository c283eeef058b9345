//go:build unix

package hdfs

import "syscall"

// mapMemory maps n bytes of anonymous private memory for memPool: outside
// the Go heap, zero-filled, never unmapped.
func mapMemory(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}
