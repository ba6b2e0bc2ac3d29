//go:build !race

package tc

const raceEnabled = false
