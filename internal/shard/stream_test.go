package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/pool"
)

// streamCoordinator opens an S-shard store over rows of the sky data with
// a pool of the given worker count, so RetrieveStream has that many slots.
func streamCoordinator(t *testing.T, rows, shards, workers int, deadline time.Duration) *Coordinator {
	t.Helper()
	p := pool.New(workers)
	t.Cleanup(p.Close)
	return openCoordinator(t, buildSharded(t, skyDataset(t, rows), shards), OpenOptions{Pool: p, Deadline: deadline})
}

// multiPartCoordinator is a one-shard coordinator whose shard holds parts
// of the rows dealt at random, the way a live snapshot holds segments.
func multiPartCoordinator(t *testing.T, rows, parts, workers int) *Coordinator {
	t.Helper()
	ds := skyDataset(t, rows)
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	const segments = 4
	g, err := grid.New(bounds, segments)
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := scatteredParts(t, ds, g, parts, 512, rand.New(rand.NewSource(int64(parts))))
	man, err := NewManifest(1, segments, ds.Schema().Names(), bounds.Min, bounds.Max, 0, []int{ds.Len()})
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(workers)
	t.Cleanup(p.Close)
	c, err := NewLocalCoordinator(man, []*Shard{{Parts: ps}}, OpenOptions{Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullMask marks every segment of every dimension of c's grid.
func fullMask(c *Coordinator) [][]bool {
	g := c.Meta().Grid
	return retrieveMasks(g.Dims(), g.Segments()[0])["fully marked"]
}

// rowsByID flattens a retrieved part into each row's value bits by global
// id. A block whose header or padding is wrong, or an id seen twice, is an
// error.
func rowsByID(into map[uint32][]uint64, p RetrievedPart) error {
	if err := p.Check(p.Blk.Dims); err != nil {
		return err
	}
	if p.Blk.Stride != kernel.StrideFor(p.Blk.N) {
		return fmt.Errorf("stride %d for %d points", p.Blk.Stride, p.Blk.N)
	}
	for d := 0; d < p.Blk.Dims; d++ {
		for _, v := range p.Blk.Data[d*p.Blk.Stride+p.Blk.N : (d+1)*p.Blk.Stride] {
			if v != 0 {
				return fmt.Errorf("dimension %d: padding word %g", d, v)
			}
		}
	}
	row := make([]float64, p.Blk.Dims)
	for i, id := range p.IDs {
		if _, dup := into[id]; dup {
			return fmt.Errorf("row %d retrieved twice", id)
		}
		bits := make([]uint64, p.Blk.Dims)
		for d, v := range p.Blk.Row(i, row) {
			bits[d] = math.Float64bits(v)
		}
		into[id] = bits
	}
	return nil
}

// TestRetrieveStreamMatchesRetrieve: the stream visits exactly the rows
// Retrieve gathers, bit for bit, under both masks, over shards of one part
// and over one shard of several parts scanned through one reused scratch,
// at every slot count.
func TestRetrieveStreamMatchesRetrieve(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3} {
		coords := map[string]*Coordinator{
			"S=4":             streamCoordinator(t, 600, 4, workers, 0),
			"S=1, five parts": multiPartCoordinator(t, 600, 5, workers),
		}
		for name, c := range coords {
			g := c.Meta().Grid
			for mask, marked := range retrieveMasks(g.Dims(), g.Segments()[0]) {
				parts, wantEntries, err := c.Retrieve(ctx, marked)
				if err != nil {
					t.Fatal(err)
				}
				want := map[uint32][]uint64{}
				for _, p := range parts {
					if err := rowsByID(want, p); err != nil {
						t.Fatal(err)
					}
				}
				got := map[uint32][]uint64{}
				var mu sync.Mutex
				visits := 0
				entries, err := c.RetrieveStream(ctx, marked, func(p RetrievedPart) error {
					mu.Lock()
					defer mu.Unlock()
					visits++
					return rowsByID(got, p)
				})
				if err != nil {
					t.Fatalf("workers=%d %s %s: %v", workers, name, mask, err)
				}
				if visits != len(parts) || entries != wantEntries || len(got) != len(want) {
					t.Fatalf("workers=%d %s %s: %d visits, %d entries, %d rows; Retrieve: %d parts, %d entries, %d rows",
						workers, name, mask, visits, entries, len(got), len(parts), wantEntries, len(want))
				}
				for id, bits := range want {
					if !slices.Equal(got[id], bits) {
						t.Fatalf("workers=%d %s %s: row %d differs", workers, name, mask, id)
					}
				}
			}
		}
	}
}

// TestRetrieveStreamVisitorErrorAsIs: an error the visitor returns ends the
// stream and comes back unwrapped — it is the caller's, not a shard's —
// also while another shard's leg is blocked until the stream cancels it.
func TestRetrieveStreamVisitorErrorAsIs(t *testing.T) {
	blocked := streamCoordinator(t, 400, 2, 2, 0)
	blocked.SetFaultHook(func(ctx context.Context, s int, op string) error {
		if s == 1 && op == OpRetrieve {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	for name, c := range map[string]*Coordinator{
		"local":                streamCoordinator(t, 400, 4, 2, 0),
		"S=2, shard 1 blocked": blocked,
	} {
		boom := errors.New("boom")
		_, err := c.RetrieveStream(context.Background(), fullMask(c), func(RetrievedPart) error { return boom })
		if err != boom {
			t.Errorf("%s: err = %v, want the visitor's own error", name, err)
		}
	}
}

// TestRetrieveStreamCanceledInVisitor: a context cancelled inside a visit
// ends the stream with context.Canceled, not a shard failure, and no visit
// starts once RetrieveStream has returned — whether the visitor reports
// the cancellation or leaves the scan to notice it.
func TestRetrieveStreamCanceledInVisitor(t *testing.T) {
	for _, report := range []bool{true, false} {
		c := streamCoordinator(t, 800, 4, 4, 0)
		ctx, cancel := context.WithCancel(context.Background())
		var returned, late atomic.Bool
		_, err := c.RetrieveStream(ctx, fullMask(c), func(RetrievedPart) error {
			if returned.Load() {
				late.Store(true)
			}
			cancel()
			if report {
				return ctx.Err()
			}
			return nil
		})
		returned.Store(true)
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrShardUnavailable) {
			t.Errorf("report=%v: err = %v, want bare context.Canceled", report, err)
		}
		// There is no event to wait for: the legs the scatter gave up on end
		// their scans within this wait, and none of them may visit.
		time.Sleep(20 * time.Millisecond)
		if late.Load() {
			t.Errorf("report=%v: a visit started after RetrieveStream returned", report)
		}
	}
}

// TestRetrieveStreamDeadShard: a fault-hooked shard fails the stream with
// ErrShardUnavailable naming it, like every strict scatter.
func TestRetrieveStreamDeadShard(t *testing.T) {
	c := streamCoordinator(t, 400, 4, 2, 0)
	injected := errors.New("injected")
	c.SetFaultHook(func(_ context.Context, s int, op string) error {
		if s == 2 && op == OpRetrieve {
			return injected
		}
		return nil
	})
	_, err := c.RetrieveStream(context.Background(), fullMask(c), func(RetrievedPart) error { return nil })
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, injected) || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("err = %v, want shard 2 unavailable", err)
	}
}

// TestRetrieveStreamBoundsVisits: at most Workers visits run at once — one
// at a time at Workers = 1, no more than two at Workers = 2 over S = 4.
func TestRetrieveStreamBoundsVisits(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := streamCoordinator(t, 400, 4, workers, 0)
		var inFlight, peak atomic.Int32
		visits := 0
		var mu sync.Mutex
		_, err := c.RetrieveStream(context.Background(), fullMask(c), func(RetrievedPart) error {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(15 * time.Millisecond)
			inFlight.Add(-1)
			mu.Lock()
			visits++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if visits != 4 || int(peak.Load()) > workers {
			t.Errorf("workers=%d: %d visits, %d at once", workers, visits, peak.Load())
		}
	}
}

// TestRetrieveStreamSlotWaitIsNotCharged: with one slot over four shards
// the last leg waits three legs' time for it, longer than the per-shard
// deadline; each leg alone fits in the deadline, so the stream succeeds.
func TestRetrieveStreamSlotWaitIsNotCharged(t *testing.T) {
	const leg, deadline = 60 * time.Millisecond, 150 * time.Millisecond
	c := streamCoordinator(t, 400, 4, 1, deadline)
	start := time.Now()
	_, err := c.RetrieveStream(context.Background(), fullMask(c), func(RetrievedPart) error {
		time.Sleep(leg)
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v after %v, want success", err, time.Since(start))
	}
	if took := time.Since(start); took < deadline {
		t.Fatalf("four serial legs took %v; the slot wait never exceeded the %v deadline", took, deadline)
	}
}
