//go:build !linux

package main

// peakRSSMB falls back to the Go runtime's view where the OS offers no
// cheap high-water RSS: memory obtained from the OS, which never shrinks.
func peakRSSMB() float64 { return sysMB() }
