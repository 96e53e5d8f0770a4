//go:build unix

package chunkstore

import "syscall"

// openFileLimit is the process's descriptor limit: RLIMIT_NOFILE's soft
// limit, which the Go runtime raises to the hard limit at start-up. An
// unlimited one counts as 1<<24; one that cannot be read, as 1 024.
func openFileLimit() int64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 1 << 10
	}
	if rl.Cur > 1<<24 {
		return 1 << 24
	}
	return int64(rl.Cur)
}
