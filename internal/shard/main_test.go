package shard

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests: after the
// run it waits up to a second for the count to fall back to what it was
// before, and otherwise prints every goroutine's stack. A fuzzing run is
// not checked: the fuzzing engine's own signal handler outlives it.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before && code == 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "goroutines leaked: %d before the tests, %d after\n%s", before, n, buf)
		code = 1
	}
	os.Exit(code)
}
