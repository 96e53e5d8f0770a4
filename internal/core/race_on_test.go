//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops items to expose reuse races, so
// allocation-count assertions are not meaningful.
const raceEnabled = true
