package main

import (
	"hash/crc32"
	"math"
	"slices"
	"time"
)

// calibrator times a fixed kernel that belongs to the benchmark, not to the
// program: the kinds of work a step is made of (a scaled-L2 pass over a
// row-major table, a CRC over a chunk-sized buffer, a hash-map fill, a sort,
// an allocation) on constant inputs. Its cost depends on the host alone, so
// the ratio of its cost during a run to calibNominalMs says how much slower
// than nominal the host ran the benchmark (a neighbour on the sibling
// hyperthread, a throttled vCPU). One sample is taken after every timed
// operation; slowdowns turns them into a factor per operation.
type calibrator struct {
	rows, query, dist []float64
	chunk             []byte
	sink              float64
}

const (
	calibRows  = 50_000
	calibDims  = 5
	calibKeys  = 4096
	calibChunk = 256 << 10
	// calibNominalMs is what one sample costs on the quiet 2-vCPU box the
	// sizes were chosen on. It fixes the host speed latencies are reported
	// at; any constant would make runs comparable with each other.
	calibNominalMs = 0.88
	// setupBurst is how many samples follow each set-up repetition.
	setupBurst = 48
)

func newCalibrator() *calibrator {
	c := &calibrator{
		rows:  make([]float64, calibRows*calibDims),
		query: make([]float64, calibDims),
		dist:  make([]float64, calibRows),
		chunk: make([]byte, calibChunk),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.rows {
		c.rows[i] = float64(next()>>11) / (1 << 53)
	}
	for i := range c.query {
		c.query[i] = float64(next()>>11) / (1 << 53)
	}
	for i := range c.chunk {
		c.chunk[i] = byte(next())
	}
	return c
}

// sample runs the kernel once and returns how long it took.
func (c *calibrator) sample() time.Duration {
	t0 := time.Now()
	for i := 0; i < calibRows; i++ {
		row := c.rows[i*calibDims : (i+1)*calibDims]
		var d float64
		for j, q := range c.query {
			diff := row[j] - q
			d += diff * diff
		}
		c.dist[i] = d
	}
	sum := crc32.ChecksumIEEE(c.chunk)
	m := make(map[uint32]float64, calibKeys)
	for i := 0; i < calibKeys; i++ {
		m[uint32(i)*2654435761] = c.dist[i]
	}
	nearest := slices.Clone(c.dist[:2*calibKeys])
	slices.Sort(nearest)
	c.sink += m[0] + nearest[0] + float64(sum)
	return time.Since(t0)
}

// burst takes n samples back to back and returns the host slowdown they
// saw: their cost over n nominal samples.
func (c *calibrator) burst(n int) float64 {
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += c.sample()
	}
	return sum.Seconds() * 1e3 / (float64(n) * calibNominalMs)
}

// slowdowns measures, for every operation of the list, how much slower than
// nominal the host was when the operation's floor was taken, by putting the
// calibration kernel through the procedure the operation went through. An
// operation whose floor is about k samples long is paired, in every round,
// with the k samples taken around it (one follows each operation); the sum
// of those is a stand-in operation of the same length that met the same
// interference. Its minimum over the rounds, over k nominal samples, is the
// operation's slowdown: 1 on a quiet host, and above 1 by as much as
// interference survived the minimum - little for a short operation, which
// gets a clean replay in some round, more for a long one, which never does.
func slowdowns(floor []opRec, calib [][]time.Duration) []float64 {
	out := make([]float64, len(floor))
	for i, op := range floor {
		out[i] = 1
		if len(calib) == 0 {
			continue
		}
		n := len(calib[0])
		k := int(math.Round(float64(op.Nanos) / 1e6 / calibNominalMs))
		k = max(1, min(k, n))
		lo := max(0, min(i-k/2, n-k))
		best := time.Duration(math.MaxInt64)
		for _, round := range calib {
			var sum time.Duration
			for _, c := range round[lo : lo+k] {
				sum += c
			}
			best = min(best, sum)
		}
		out[i] = float64(best.Nanoseconds()) / 1e6 / (float64(k) * calibNominalMs)
	}
	return out
}

// medianMs is the median of samples, in ms (a round's diagnostic).
func medianMs(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return float64(s[len(s)/2].Nanoseconds()) / 1e6
}
