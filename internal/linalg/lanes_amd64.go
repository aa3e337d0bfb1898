package linalg

// lanesOn selects the AVX2 lane kernels of lanes_amd64.s. It is decided
// once, here, from the CPU: AVX and AVX2 present, and the OS saving the
// YMM state (OSXSAVE, with XCR0's SSE and AVX bits set).
var lanesOn = haveLanes

var haveLanes = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

// haveLink selects the logistic link's kernel, which fuses where
// math.Exp fuses: it runs only with the lane kernels, on a CPU with FMA,
// and where it returns the scalar link's bits on linkProbe. The last test
// is how the kernel follows the standard library: math.Exp takes its
// non-FMA branch on a CPU without FMA or under GODEBUG=cpu.fma=off, and its
// bits then differ from the kernel's.
var haveLink = haveLanes && haveFMA() && linkMatches()

func haveFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func axpyLanes(a float64, x, y []float64)

//go:noescape
func addRowsLanes(y []float64, c *[4]float64, rows *[4][]float64, m int)

//go:noescape
func givensLanes(x, y []float64, c, s float64)

//go:noescape
func rankTwoLanes(row, d, e []float64, ek, dk float64)

//go:noescape
func scoresLanes(z, x, t []float64)

//go:noescape
func logisticLinkLanes(z, y, loss, coef []float64) int
