package hdfs

import "syscall"

// releasePages gives the physical pages behind b, a pooled mapping, back to
// the operating system. The range stays mapped and reads as zeros until
// written again.
func releasePages(b []byte) bool { return syscall.Madvise(b, syscall.MADV_DONTNEED) == nil }
