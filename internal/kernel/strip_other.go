//go:build !amd64

package kernel

// No vector bodies on this architecture: the Go loops are the whole of each
// strip and chunk kernel and the stubs below are never reached.
const hasAVX2 = false

func scaleIntoAVX2(dst, src []float64, scale float64) {}
func addSquaredDiffAVX2(dst, q []float64, v float64)  {}
func squaredDiffIntoAVX2(dst, q []float64, v float64) {}

func majorityNearerAVX2(masks []uint8, qs []float64, w, dims int, pos []float64, npos int, neg []float64, nneg, need1, need2, need3 int) {
}

func selectLanesAVX2(d2 []float64, w, rows, k int, lists []uint64) (odd int) { return 0 }

func ascendingGapsAVX2(dst []float64, src []byte, width uint, plan *gapPlan) (ok bool)     { return true }
func unpackAVX2(dst []uint32, src []byte, width uint)                                      {}
func memberMasksAVX2(masks []uint8, ids []uint32, set []uint32, top uint32) (maxID uint32) { return 0 }
