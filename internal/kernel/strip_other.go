//go:build !amd64

package kernel

// No vector bodies on this architecture: the Go loops are the whole of each
// strip kernel and the stubs below are never reached.
const hasAVX2 = false

func addSquaredDiffAVX2(dst, q []float64, v float64)  {}
func squaredDiffIntoAVX2(dst, q []float64, v float64) {}
func countBelowAVX2(cnt []int32, v, thr []float64)    {}
