package dataset

import (
	"fmt"
	"math/rand"

	"github.com/uei-db/uei/internal/vec"
)

// SkyConfig controls the synthetic SDSS-like generator. The generator is the
// substitution documented in DESIGN.md §3 for the paper's 40 GB PhotoObjAll
// extract: it reproduces the five-attribute numeric schema and the clustered
// density structure that makes small high-density target regions exist, at a
// configurable scale.
type SkyConfig struct {
	// N is the number of tuples to generate.
	N int
	// Seed makes generation deterministic; runs with equal seeds produce
	// byte-identical datasets.
	Seed int64
	// Clusters is the number of Gaussian density clusters scattered through
	// the space. Zero selects the default of 12.
	Clusters int
	// ClusterFraction is the fraction of tuples drawn from clusters rather
	// than the uniform background. Zero selects the default of 0.35.
	ClusterFraction float64
}

// skyRanges are the natural domains of the PhotoObjAll attributes used in
// the paper: pixel coordinates rowc/colc, sky coordinates ra/dec, and the
// integer-valued field number.
var skyRanges = [5][2]float64{
	{0, 2048}, // rowc
	{0, 2048}, // colc
	{0, 360},  // ra
	{-90, 90}, // dec
	{0, 1000}, // field
}

// GenerateSky produces a synthetic SDSS-like dataset. Roughly
// ClusterFraction of the tuples come from Gaussian clusters (making dense
// interesting regions) and the rest from a uniform background (making sparse
// space the explorer must rule out).
func GenerateSky(cfg SkyConfig) (*Dataset, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: GenerateSky needs N > 0, got %d", cfg.N)
	}
	clusters := cfg.Clusters
	if clusters == 0 {
		clusters = 12
	}
	if clusters < 0 {
		return nil, fmt.Errorf("dataset: negative cluster count %d", clusters)
	}
	frac := cfg.ClusterFraction
	if frac == 0 {
		frac = 0.35
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("dataset: cluster fraction %g outside [0,1]", frac)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := SkySchema()
	k := schema.Dims()

	// Cluster centers and scales, drawn once.
	centers := make([][]float64, clusters)
	scales := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, k)
		scales[c] = make([]float64, k)
		for j := 0; j < k; j++ {
			lo, hi := skyRanges[j][0], skyRanges[j][1]
			span := hi - lo
			centers[c][j] = lo + rng.Float64()*span
			// Cluster std between 1% and 4% of the dimension span keeps
			// clusters compact enough that 0.1% regions are meaningful.
			scales[c][j] = span * (0.01 + 0.03*rng.Float64())
		}
	}

	ds := New(schema, cfg.N)
	row := make([]float64, k)
	for i := 0; i < cfg.N; i++ {
		if clusters > 0 && rng.Float64() < frac {
			c := rng.Intn(clusters)
			for j := 0; j < k; j++ {
				lo, hi := skyRanges[j][0], skyRanges[j][1]
				v := centers[c][j] + rng.NormFloat64()*scales[c][j]
				row[j] = clampf(v, lo, hi)
			}
		} else {
			for j := 0; j < k; j++ {
				lo, hi := skyRanges[j][0], skyRanges[j][1]
				row[j] = lo + rng.Float64()*(hi-lo)
			}
		}
		// "field" behaves like an integer attribute in SDSS.
		row[k-1] = float64(int(row[k-1]))
		if _, err := ds.Append(row); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// GenerateUniform produces n tuples uniformly distributed in the given box.
// It is used by tests and micro-benchmarks that want structure-free data.
func GenerateUniform(schema Schema, box vec.Box, n int, seed int64) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: GenerateUniform needs n > 0, got %d", n)
	}
	if schema.Dims() != box.Dims() {
		return nil, fmt.Errorf("dataset: schema has %d dims, box has %d", schema.Dims(), box.Dims())
	}
	rng := rand.New(rand.NewSource(seed))
	ds := New(schema, n)
	row := make([]float64, schema.Dims())
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = box.Min[j] + rng.Float64()*(box.Max[j]-box.Min[j])
		}
		if _, err := ds.Append(row); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// SkyBounds returns the full domain box of the sky schema. Datasets produced
// by GenerateSky always lie inside it.
func SkyBounds() vec.Box {
	min := make([]float64, len(skyRanges))
	max := make([]float64, len(skyRanges))
	for i, r := range skyRanges {
		min[i], max[i] = r[0], r[1]
	}
	return vec.NewBox(min, max)
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
