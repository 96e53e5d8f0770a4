package memcache

import (
	"fmt"
	"math/rand"
	"sort"
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
	chosen := make(map[uint32]bool, k)
	for j := n - k; j < n; j++ {
		t := uint32(rng.Intn(j + 1))
		if chosen[t] {
			chosen[uint32(j)] = true
		} else {
			chosen[t] = true
		}
	}
	out := make([]uint32, 0, k)
	for id := range chosen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
