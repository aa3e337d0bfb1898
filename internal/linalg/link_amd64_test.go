package linalg

import (
	"math"
	"testing"
)

// The link kernel is on exactly where it can return the scalar link's bits:
// with the lane kernels and FMA, and only when math.Exp takes its FMA
// branch — the branch the kernel copies. Under GODEBUG=cpu.fma=off the
// standard library steps down to its other branch and the kernel must too.
func TestLinkKernelFollowsStdlib(t *testing.T) {
	stdlibFMA := math.Float64bits(math.Exp(-0.2)) == expFMABits
	if want := haveLanes && haveFMA() && stdlibFMA; haveLink != want {
		t.Fatalf("link kernel on = %v; lanes %v, FMA %v, math.Exp's FMA branch %v", haveLink, haveLanes, haveFMA(), stdlibFMA)
	}
	t.Logf("link kernel on = %v (math.Exp's FMA branch %v)", haveLink, stdlibFMA)
	if haveLanes && haveFMA() && !stdlibFMA {
		// The kernel is what the self-check turned off: it differs from
		// the scalar link on the probe.
		if linkMatches() {
			t.Fatal("the stdlib took its non-FMA branch, yet the kernel matched it on the probe")
		}
	}
}

// expFMABits is math.Exp(−0.2) on its FMA branch; the other branch returns
// 0x3fea330ad616615a.
const expFMABits = 0x3fea330ad6166159
