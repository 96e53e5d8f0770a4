package kernel

// hasAVX2 is what the CPU and the OS answered at package init; nothing
// sets it afterwards.
var hasAVX2 = detectAVX2()

// detectAVX2 reports CPUID leaf 7 EBX bit 5 on a CPU whose OS saves the YMM
// state (OSXSAVE, XCR0 bits 1-2).
func detectAVX2() bool

// The element-wise vector bodies cover the first len(q)&^3 (len(src)&^3)
// elements and touch nothing after them; dst must be at least as long.

//go:noescape
func scaleIntoAVX2(dst, src []float64, scale float64)

//go:noescape
func addSquaredDiffAVX2(dst, q []float64, v float64)

//go:noescape
func squaredDiffIntoAVX2(dst, q []float64, v float64)

// majorityNearerAVX2 writes masks[:w/4] for points [0, w&^3) of a strip of
// width w against the three levels need1-need3 (a level of 0 or less is
// always met); qs must hold dims*w values, pos npos*dims and neg nneg*dims,
// and dims must be at least 1.
//
//go:noescape
func majorityNearerAVX2(masks []uint8, qs []float64, w, dims int, pos []float64, npos int, neg []float64, nneg, need1, need2, need3 int)

// selectLanesAVX2 selects over lanes 0-3 of rows [0, rows) of a strip of
// width w, into lists[:8k]; rows and k must be at least 1 and d2 must hold
// (rows-1)*w+4 values. Bit l of odd marks a lane whose list is not valid.
//
//go:noescape
func selectLanesAVX2(d2 []float64, w, rows, k int, lists []uint64) (odd int)

// The chunk kernels' bodies (chunk_amd64.s). ascendingGapsAVX2 decodes
// dst[1:] from dst[0] in (len(dst)-1)/8 passes, each of whose loads must
// end inside src (gapItems), at a width of at most MaxVectorGap, and
// reports whether no key wrapped;
// unpackAVX2 covers len(dst)/8 blocks, each of whose loads must end inside
// src (unpackItems); memberMasksAVX2 covers len(ids)/8 blocks, set holding
// bit top.

//go:noescape
func ascendingGapsAVX2(dst []float64, src []byte, width uint, plan *gapPlan) (ok bool)

//go:noescape
func unpackAVX2(dst []uint32, src []byte, width uint)

//go:noescape
func memberMasksAVX2(masks []uint8, ids []uint32, set []uint32, top uint32) (maxID uint32)
