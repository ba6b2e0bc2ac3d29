package main

import (
	"bytes"
	"os"
	"strconv"
)

// peakRSSMB is the process's high-water resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return sysMB()
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return sysMB()
}
