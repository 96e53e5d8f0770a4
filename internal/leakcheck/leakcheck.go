// Package leakcheck is the TestMain of packages whose tests must not leave
// goroutines running or files open behind them, and the wait a single test
// makes for its own goroutines to exit (WaitGoroutines). It imports
// nothing of the module, so any package's tests can use it:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m, leakcheck.Goroutines|leakcheck.Files) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check names what Main holds the tests to.
type Check uint8

const (
	// Goroutines fails the run when more goroutines are alive after the
	// tests than before them.
	Goroutines Check = 1 << iota
	// Files fails the run when the process holds more descriptors after
	// the tests, and a garbage collection, than before them. It counts
	// /proc/self/fd, so it checks nothing where that is absent.
	Files
)

const (
	// goroutineSettle is how long Main waits for goroutines to exit before
	// it calls them leaked.
	goroutineSettle = time.Second
	// fileSettle is how long Main collects garbage and waits for the
	// finalizers of unreachable files to run before it calls them leaked.
	fileSettle = 2 * time.Second
)

// Main runs the package's tests and exits with their code. A passing run
// fails when what checks names outlives the tests, printing every
// goroutine's stack or every leaked descriptor's target. A fuzzing run is
// not checked: the fuzzing engine's own goroutines and files outlive it.
func Main(m *testing.M, checks Check) {
	goroutines := runtime.NumGoroutine()
	fds, fdsOK := openFiles()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); code != 0 || (f != nil && f.Value.String() != "") {
		os.Exit(code)
	}
	if checks&Goroutines != 0 {
		if n, ok := settleGoroutines(goroutines, goroutineSettle); !ok {
			fmt.Fprintf(os.Stderr, "goroutines leaked: %d before the tests, %d after\n%s", goroutines, n, stacks())
			code = 1
		}
	}
	if checks&Files != 0 && fdsOK {
		// A store nobody closed holds its files until the collector finds
		// it unreachable and its files' finalizers have run.
		after, _ := openFiles()
		deadline := time.Now().Add(fileSettle)
		for len(after) > len(fds) && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			after, _ = openFiles()
		}
		if len(after) > len(fds) {
			fmt.Fprintf(os.Stderr, "files leaked: %d descriptors before the tests, %d after:\n", len(fds), len(after))
			for fd, target := range after {
				if _, ok := fds[fd]; !ok {
					fmt.Fprintf(os.Stderr, "  fd %s -> %s\n", fd, target)
				}
			}
			code = 1
		}
	}
	os.Exit(code)
}

// WaitGoroutines waits up to within for at most limit goroutines to be
// alive — a count the test took before the work it checks, plus whatever
// slack it allows — and fails t, printing every goroutine's stack, when
// more still are.
func WaitGoroutines(t testing.TB, limit int, within time.Duration) {
	t.Helper()
	if n, ok := settleGoroutines(limit, within); !ok {
		t.Fatalf("goroutines leaked: %d alive after %v, at most %d allowed\n%s", n, within, limit, stacks())
	}
}

// settleGoroutines waits up to within for at most limit goroutines to be
// alive. It returns how many are, and whether that is few enough.
func settleGoroutines(limit int, within time.Duration) (n int, ok bool) {
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	n = runtime.NumGoroutine()
	return n, n <= limit
}

// stacks is every goroutine's stack.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

// openFiles maps each descriptor the process holds to what it points at,
// leaving out the one its own listing opens. ok is false where
// /proc/self/fd cannot be read.
func openFiles() (fds map[string]string, ok bool) {
	// The runtime's poller takes two descriptors at the first file opened
	// through it, and keeps them: open one first, so they count as before
	// the tests.
	if f, err := os.Open(os.Args[0]); err == nil {
		f.Close()
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	fds = make(map[string]string, len(entries))
	for _, e := range entries {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil {
			continue // the listing's own descriptor, closed by now
		}
		fds[e.Name()] = target
	}
	return fds, true
}

// FilesUnder returns the descriptors the process holds on files under dir
// (dir itself excluded), each as "fd -> target" — a deleted file's target
// ends in " (deleted)". It returns nil where /proc/self/fd cannot be read.
func FilesUnder(dir string) []string {
	fds, _ := openFiles()
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var out []string
	for fd, target := range fds {
		if strings.HasPrefix(target, prefix) {
			out = append(out, fd+" -> "+target)
		}
	}
	return out
}

// ProcFDs reports whether the process's descriptors can be listed
// (/proc/self/fd), which FilesUnder and the Files check need.
func ProcFDs() bool {
	_, ok := openFiles()
	return ok
}
