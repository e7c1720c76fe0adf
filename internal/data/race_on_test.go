//go:build race

package data

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts are not pinned under it.
const raceEnabled = true
