//go:build !linux

package hdfs

// releasePages reports that b keeps its pages: pooled memory is given back
// to the operating system only on Linux (replicamem_linux.go).
func releasePages(b []byte) bool { return false }
