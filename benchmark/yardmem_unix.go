//go:build unix

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// yardAlloc maps the yardstick's array outside the Go heap: 32 MiB of live
// heap would move the garbage collector's pacing, and with it the memory
// and the speed of the system under test.
func yardAlloc() ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, yardArray*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick: mmap: %w", err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), yardArray), nil
}

func yardFree(arr []uint64) {
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&arr[0])), yardArray*8)) // the process is about to exit
}
