package main

import (
	"fmt"
	"math"
	"sort"
)

// noiseFloor folds R replays of one operation list into one latency per
// operation: the minimum over the rounds. Interference on a shared host
// only ever adds time, so the minimum converges on the program's own cost.
// Every round must have the shape (kinds, sessions) of ref and reproduce
// its digests; a round that does not is dropped and all its operations
// count as failed. An operation that failed in any kept round is failed.
// kept holds the rounds that were used.
func noiseFloor(ref roundResult, rounds []roundResult) (floor []opRec, attempted, failed int, kept []roundResult) {
	floor = make([]opRec, len(ref.Ops))
	for i, op := range ref.Ops {
		floor[i] = opRec{Kind: op.Kind, Session: op.Session, Nanos: math.MaxInt64}
	}
	for _, r := range rounds {
		attempted += len(ref.Ops)
		if !reproduces(ref, r) {
			failed += len(ref.Ops)
			continue
		}
		kept = append(kept, r)
		for i, op := range r.Ops {
			if op.Failed {
				failed++
				floor[i].Failed = true
			}
			if op.Nanos < floor[i].Nanos {
				floor[i].Nanos = op.Nanos
			}
		}
	}
	return floor, attempted, failed, kept
}

// reproduces reports whether round b replayed reference a: no harness
// error, the same operations in the same order, the same digests.
func reproduces(a, b roundResult) bool {
	if b.Err != nil || len(a.Ops) != len(b.Ops) || a.LabelDigest != b.LabelDigest || a.ResultDigest != b.ResultDigest {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].Session != b.Ops[i].Session {
			return false
		}
	}
	return true
}

// millisOf returns the sorted latencies, in ms, of the operations of kind.
func millisOf(ops []opRec, kind opKind) []float64 {
	var out []float64
	for _, op := range ops {
		if op.Kind == kind {
			out = append(out, float64(op.Nanos)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func rank(n int, p float64) int {
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// beyond is how many of n samples lie above the nearest-rank p-quantile. A
// percentile is reported only with at least minBeyond samples beyond it.
func beyond(n int, p float64) int { return n - rank(n, p) }

const minBeyond = 10

// checkTail fails when n samples cannot support percentile p.
func checkTail(name string, n int, p float64) error {
	if b := beyond(n, p); b < minBeyond {
		return fmt.Errorf("%s: %d samples leave %d beyond p%.0f, need %d", name, n, b, p*100, minBeyond)
	}
	return nil
}

// median of unsorted values (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
