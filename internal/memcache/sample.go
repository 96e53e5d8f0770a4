package memcache

import (
	"fmt"
	"math/bits"
	"math/rand"
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
	// Each draw adds one id the set does not hold yet. A bitset over [0, n)
	// answers membership, and walking it yields the ids in ascending order,
	// so no sort follows the draw.
	chosen := make([]uint64, (n+63)/64)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t/64]&(1<<(t%64)) != 0 {
			t = j
		}
		chosen[t/64] |= 1 << (t % 64)
	}
	out := make([]uint32, 0, k)
	for w, word := range chosen {
		for word != 0 {
			out = append(out, uint32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out, nil
}
