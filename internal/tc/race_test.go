//go:build race

package tc

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a quarter of what it is given: an allocation bound that counts on the
// scratch pool allows for it.
const raceEnabled = true
