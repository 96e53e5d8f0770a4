//go:build !race

package chunkstore

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
