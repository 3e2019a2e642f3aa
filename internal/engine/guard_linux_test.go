package engine

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last element is the last four
// bytes before an inaccessible page: reading past the slice faults.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-n*4])), n)
}
