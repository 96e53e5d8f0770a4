package prefetch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowLoader returns a LoadFunc that sleeps, then returns a row tagged with
// the cell id, counting invocations.
func slowLoader(delay time.Duration, calls *atomic.Int64) LoadFunc {
	return func(_ context.Context, cell int) ([]uint32, [][]float64, error) {
		calls.Add(1)
		time.Sleep(delay)
		return []uint32{uint32(cell)}, [][]float64{{float64(cell)}}, nil
	}
}

// gatedLoader returns a LoadFunc that blocks until release is closed or its
// context is canceled, recording the most loads ever running at once.
func gatedLoader(release <-chan struct{}, running, peak *atomic.Int64) LoadFunc {
	return func(ctx context.Context, cell int) ([]uint32, [][]float64, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		select {
		case <-release:
			return []uint32{uint32(cell)}, nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil loader should fail")
	}
}

func TestAwaitSynchronous(t *testing.T) {
	var calls atomic.Int64
	p, err := New(slowLoader(time.Millisecond, &calls))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := p.Await(context.Background(), 7)
	if r.Err != nil || len(r.IDs) != 1 || r.IDs[0] != 7 {
		t.Fatalf("Await = %+v", r)
	}
	if r.Ready {
		t.Error("a synchronous load reported Ready")
	}
	if calls.Load() != 1 {
		t.Errorf("loader called %d times", calls.Load())
	}
}

// TestStartThenAwaitReady: a background load that finished before Await
// asked is handed over as Ready, without loading again, and only once.
func TestStartThenAwaitReady(t *testing.T) {
	var calls atomic.Int64
	p, _ := New(slowLoader(0, &calls))
	defer p.Close()
	if err := p.Start(3); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	done := p.cur.done
	p.mu.Unlock()
	<-done
	r := p.Await(context.Background(), 3)
	if r.Err != nil || r.Cell != 3 || !r.Ready {
		t.Fatalf("result = %+v, want cell 3 Ready", r)
	}
	if calls.Load() != 1 {
		t.Errorf("loader called %d times; Await should take the finished load", calls.Load())
	}
	// The load was taken: a second Await loads synchronously.
	if r := p.Await(context.Background(), 3); r.Ready || calls.Load() != 2 {
		t.Errorf("second Await: Ready=%v, %d loads", r.Ready, calls.Load())
	}
}

// TestStartRetargetCancels: starting a different cell cancels and joins the
// held load, so at most one load ever runs; re-starting the held cell keeps
// it.
func TestStartRetargetCancels(t *testing.T) {
	release := make(chan struct{})
	var running, peak atomic.Int64
	p, _ := New(gatedLoader(release, &running, &peak))
	defer p.Close()
	if err := p.Start(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(1); err != nil {
		t.Fatal(err)
	}
	for cell := 2; cell <= 5; cell++ {
		if err := p.Start(cell); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	r := p.Await(context.Background(), 5)
	if r.Err != nil || r.Cell != 5 {
		t.Fatalf("r = %+v", r)
	}
	if peak.Load() != 1 {
		t.Errorf("%d loads ran at once; a retarget must join the stale one", peak.Load())
	}
}

func TestAwaitJoinsInflight(t *testing.T) {
	var calls atomic.Int64
	p, _ := New(slowLoader(10*time.Millisecond, &calls))
	defer p.Close()
	p.Start(5)
	r := p.Await(context.Background(), 5)
	if r.Err != nil || r.Cell != 5 {
		t.Fatalf("r = %+v", r)
	}
	if calls.Load() != 1 {
		t.Errorf("loader called %d times; Await should join the in-flight load", calls.Load())
	}
}

func TestAwaitDifferentCellLoadsSynchronously(t *testing.T) {
	var calls atomic.Int64
	p, _ := New(slowLoader(5*time.Millisecond, &calls))
	defer p.Close()
	p.Start(1)
	r := p.Await(context.Background(), 2) // different cell: must not wait for cell 1's buffer
	if r.Cell != 2 || r.Err != nil {
		t.Fatalf("r = %+v", r)
	}
	p.Await(context.Background(), 1)
}

// TestAwaitCanceledKeepsLoad: a canceled wait returns ctx.Err() and leaves
// the background load for a later Await.
func TestAwaitCanceledKeepsLoad(t *testing.T) {
	release := make(chan struct{})
	var running, peak atomic.Int64
	p, _ := New(gatedLoader(release, &running, &peak))
	defer p.Close()
	p.Start(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r := p.Await(ctx, 4); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("canceled Await err = %v", r.Err)
	}
	close(release)
	if r := p.Await(context.Background(), 4); r.Err != nil || r.Cell != 4 {
		t.Fatalf("Await after a canceled wait = %+v", r)
	}
}

// TestCancelJoins: after Cancel returns no load is running and the held
// result is gone.
func TestCancelJoins(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var running, peak atomic.Int64
	p, _ := New(gatedLoader(release, &running, &peak))
	defer p.Close()
	p.Start(6)
	p.Cancel()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d loads still running after Cancel", n)
	}
	p.mu.Lock()
	held := p.cur
	p.mu.Unlock()
	if held != nil {
		t.Error("Cancel kept the load")
	}
	p.Cancel() // nothing held: no-op
}

func TestLoadErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	p, _ := New(func(_ context.Context, cell int) ([]uint32, [][]float64, error) {
		return nil, nil, boom
	})
	defer p.Close()
	r := p.Await(context.Background(), 1)
	if !errors.Is(r.Err, boom) {
		t.Errorf("err = %v", r.Err)
	}
	p.Start(2)
	if r := p.Await(context.Background(), 2); !errors.Is(r.Err, boom) {
		t.Errorf("async err = %v", r.Err)
	}
}

// TestTheta: θ is a function of (rows, dims, segments, rate, σ) and
// nothing else — the worked values of the three configurations that turn
// prefetch on, the θ ≥ 1 floor, the clamp where τ̂/σ leaves the int range,
// and the inputs that leave τ̂ undefined.
func TestTheta(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		name             string
		rows, dims, segs int
		bytesPerSecond   int64
		sigma            time.Duration
		want             int
		wantErr          bool
	}{
		{"examples/tuning", 80_000, 5, 5, mib, 500 * time.Millisecond, 2, false},
		{"FullConfig", 2_000_000, 5, 5, 64 * mib, 500 * time.Millisecond, 1, false},
		{"ladder top rung", 10_000_000, 5, 5, 36_000_000, 500 * time.Millisecond, 7, false},
		{"golden store", 2400, 5, 5, 1_000_000_000, 10 * time.Microsecond, 3, false},
		{"⌈N/s⌉ rounds up", 2401, 5, 5, 12 * 5 * 481, time.Second, 1, false},
		{"one past a whole σ", 2401, 5, 5, 12 * 5 * 481, time.Second - time.Nanosecond, 2, false},
		{"empty store", 0, 5, 5, mib, time.Millisecond, 1, false},
		{"huge N over a tiny rate", math.MaxInt, 64, 1, 1, time.Nanosecond, maxTheta, false},
		{"no limiter", 80_000, 5, 5, 0, time.Second, 0, true},
		{"negative rate", 80_000, 5, 5, -1, time.Second, 0, true},
		{"no σ", 80_000, 5, 5, mib, 0, 0, true},
		{"no dims", 80_000, 0, 5, mib, time.Second, 0, true},
		{"no segments", 80_000, 5, 0, mib, time.Second, 0, true},
	}
	for _, c := range cases {
		got, err := Theta(c.rows, c.dims, c.segs, c.bytesPerSecond, c.sigma)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if got != c.want {
			t.Errorf("%s: θ = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStartValidation(t *testing.T) {
	var calls atomic.Int64
	p, _ := New(slowLoader(0, &calls))
	defer p.Close()
	if err := p.Start(-1); err == nil {
		t.Error("negative cell should fail")
	}
}

func TestClose(t *testing.T) {
	var calls atomic.Int64
	p, _ := New(slowLoader(5*time.Millisecond, &calls))
	p.Start(1)
	p.Close()
	p.Close() // idempotent
	if err := p.Start(2); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after close = %v", err)
	}
	if r := p.Await(context.Background(), 2); !errors.Is(r.Err, ErrClosed) {
		t.Errorf("Await after close = %v", r.Err)
	}
}

// TestConcurrentUse drives Start, Await, Cancel and Close from several
// goroutines at once; run it under -race. Every Await must still return
// its own cell's rows: a load a concurrent retarget cancelled is loaded
// again synchronously, never handed over as a canceled result.
func TestConcurrentUse(t *testing.T) {
	p, _ := New(func(ctx context.Context, cell int) ([]uint32, [][]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return []uint32{uint32(cell)}, [][]float64{{float64(cell)}}, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cell := g*100 + i
				if err := p.Start(cell); err != nil {
					t.Errorf("goroutine %d: Start: %v", g, err)
					return
				}
				if i%10 == 9 {
					p.Cancel()
				}
				r := p.Await(context.Background(), cell)
				if r.Err != nil || r.Cell != cell || len(r.IDs) != 1 || r.IDs[0] != uint32(cell) {
					t.Errorf("goroutine %d: %+v", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.Close()
}

func ExampleTheta() {
	// 80k rows over a 5-D grid of 5 segments per dimension, read at 1 MiB/s
	// with a 500 ms latency threshold.
	theta, _ := Theta(80_000, 5, 5, 1<<20, 500*time.Millisecond)
	fmt.Println(theta)
	// Output: 2
}
