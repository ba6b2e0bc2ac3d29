//go:build !unix

package main

// yardAlloc falls back to the Go heap where there is no mmap.
func yardAlloc() ([]uint64, error) { return make([]uint64, yardArray), nil }

func yardFree([]uint64) {}
