package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkConcurrentSessions measures step throughput while 1, 4, and 16
// sessions share the index, the memory budget, and the step semaphore. Each
// goroutine drives its own oracle-mode session; b.N steps are split across
// the fleet, so per-op time directly exposes arbitration and contention
// overhead as the session count grows. The "-cached" variants add the
// shared decoded-chunk block cache, so sessions=16 vs sessions=16-cached
// is the serving-layer measure of the cache's win (the benchmark's
// explore-cold vs explore-hot workloads are the recorded one).
func BenchmarkConcurrentSessions(b *testing.B) {
	dir, _ := buildStore(b, 4000)
	for _, sessions := range []int{1, 4, 16} {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("sessions=%d", sessions)
			if cached {
				name += "-cached"
			}
			cached := cached
			b.Run(name, func(b *testing.B) {
				m := newTestManager(b, dir, func(c *Config) {
					c.MaxSessions = sessions
					c.TotalBudgetBytes = int64(sessions) * (4 << 20)
					c.IdleTimeout = 0
					if cached {
						// Grow the pool by the cache share instead of carving
						// it out, so per-session budgets (and therefore
						// sample sizes and step work) match the uncached run.
						c.BlockCacheBytes = 8 << 20
						c.TotalBudgetBytes += c.BlockCacheBytes
					}
				})
				ctx := context.Background()
				ids := make([]string, sessions)
				for i := range ids {
					info, err := m.Create(ctx, SessionSpec{
						// Effectively unbounded for benchmark purposes: the
						// harness stops stepping at b.N, not at the budget.
						MaxLabels:  1 << 20,
						SampleSize: 300,
						Seed:       int64(100 + i),
						Oracle:     &OracleSpec{Selectivity: 0.05},
					})
					if err != nil {
						b.Fatal(err)
					}
					ids[i] = info.ID
				}

				b.ResetTimer()
				var wg sync.WaitGroup
				var mu sync.Mutex
				var firstErr error
				for i := 0; i < sessions; i++ {
					steps := b.N / sessions
					if i < b.N%sessions {
						steps++
					}
					wg.Add(1)
					go func(id string, steps int) {
						defer wg.Done()
						for s := 0; s < steps; s++ {
							// Retry queue-full: the benchmark goroutine is the
							// only client of its session, but the shared step
							// semaphore can still delay ticket release.
							for {
								_, err := m.Step(ctx, id, StepRequest{})
								if err == nil {
									break
								}
								if err == ErrQueueFull {
									time.Sleep(time.Millisecond)
									continue
								}
								mu.Lock()
								if firstErr == nil {
									firstErr = err
								}
								mu.Unlock()
								return
							}
						}
					}(ids[i], steps)
				}
				wg.Wait()
				b.StopTimer()
				if firstErr != nil {
					b.Fatal(firstErr)
				}
				if cached {
					s := m.Index().BlockCache().Stats()
					b.ReportMetric(s.HitRate()*100, "hit%")
				}
			})
		}
	}
}
