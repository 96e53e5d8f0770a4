package memcache

import (
	"fmt"
	"math/rand"
	"slices"
)

// SampleIDs draws k distinct row ids uniformly from [0, n) using Floyd's
// algorithm, returning them sorted ascending. It backs Algorithm 2 line 12,
// "U <- sample(D, γ)". When k >= n it returns every id.
func SampleIDs(n, k int, seed int64) ([]uint32, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("memcache: negative sample parameters n=%d k=%d", n, k)
	}
	if n == 0 || k == 0 {
		return nil, nil
	}
	if k >= n {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i)
		}
		return out, nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Each draw adds one id the set does not hold yet, so out collects the
	// ids as they are drawn and the map only answers membership.
	chosen := make(map[uint32]struct{}, k)
	out := make([]uint32, 0, k)
	for j := n - k; j < n; j++ {
		t := uint32(rng.Intn(j + 1))
		if _, dup := chosen[t]; dup {
			t = uint32(j)
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	slices.Sort(out)
	return out, nil
}
