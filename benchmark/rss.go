package main

import "runtime"

// sysMB is the memory the Go runtime has obtained from the OS, in MiB.
func sysMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
