//go:build !unix

package chunkstore

// openFileLimit is the descriptor limit assumed where the process has no
// RLIMIT_NOFILE to read.
func openFileLimit() int64 { return 1 << 10 }
