package kernel

// hasAVX2 is what the CPU and the OS answered at package init; nothing
// sets it afterwards.
var hasAVX2 = detectAVX2()

// detectAVX2 reports CPUID leaf 7 EBX bit 5 on a CPU whose OS saves the YMM
// state (OSXSAVE, XCR0 bits 1-2).
func detectAVX2() bool

// The vector bodies cover the first len(q)&^3 (len(v)&^3) elements and
// touch nothing after them; dst, cnt and thr must be at least as long.

//go:noescape
func addSquaredDiffAVX2(dst, q []float64, v float64)

//go:noescape
func squaredDiffIntoAVX2(dst, q []float64, v float64)

//go:noescape
func countBelowAVX2(cnt []int32, v, thr []float64)
