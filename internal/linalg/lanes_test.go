package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// laneValues are the awkward inputs every lane kernel must treat as its
// scalar loop does: signed zeros, infinities, NaN, subnormals, and values
// whose products overflow or underflow.
var laneValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, 1, -1, 0.1,
}

// nextValue draws a special value one time in four and a normal variate
// scaled by a random power of ten otherwise.
func nextValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return laneValues[rng.Intn(len(laneValues))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// sameBits reports whether a and b are the same float64, bit for bit, where
// all NaNs count as one value: when both operands of an add are NaN, x86
// keeps the first operand's payload, and the Go compiler picks operand order
// per site, so a NaN's payload is not something either path defines.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// laneCase is one call of one kernel: its slices are cut at element offset
// off of larger buffers (so the lanes start unaligned), filled from next.
type laneCase struct {
	kernel string
	n, off int        // output length; offset into each buffer
	k      int        // classes, for "scores"
	coef   [4]float64 // a / c, s / ek, dk / the row coefficients
	m      int        // rows, for "rows"
}

var laneKernels = []string{"axpy", "rows", "givens", "rankTwo", "scores"}

// vec returns n values from next at offset off of a fresh buffer.
func vec(n, off int, next func() float64) []float64 {
	buf := make([]float64, off+n+5)
	v := buf[off : off+n]
	for i := range v {
		v[i] = next()
	}
	return v
}

// run makes the case's inputs, runs its kernel through the wrapper with the
// lanes on and with them off, and returns both outputs and the reference
// formulations the kernel replaced (empty when there is none beyond the
// scalar loop).
func (c laneCase) run(next func() float64) (lanes, scalar []float64, refs [][]float64) {
	prev := lanesOn
	defer func() { lanesOn = prev }()
	clone := func(s []float64) []float64 {
		buf := make([]float64, c.off+len(s)+5)[c.off : c.off+len(s)]
		copy(buf, s)
		return buf
	}
	twice := func(out []float64, call func(out []float64)) {
		a, b := clone(out), clone(out)
		lanesOn = haveLanes
		call(a)
		lanesOn = false
		call(b)
		lanes, scalar = append(lanes, a...), append(scalar, b...)
	}
	switch c.kernel {
	case "axpy":
		x, y := vec(c.n, c.off, next), vec(c.n, c.off, next)
		twice(y, func(y []float64) { Axpy(c.coef[0], x, y) })
	case "rows":
		rows := make([][]float64, c.m)
		for r := range rows {
			rows[r] = vec(c.n, c.off, next)
		}
		y := vec(c.n, c.off, next)
		twice(y, func(y []float64) {
			var g rowGroup
			for r, row := range rows {
				g.add(c.coef[r], row)
			}
			g.flush(y)
		})
		// The formulation the group replaced: one Axpy pass per row.
		ref := clone(y)
		lanesOn = false
		for r, row := range rows {
			Axpy(c.coef[r], row, ref)
		}
		refs = append(refs, ref)
	case "givens":
		xy := vec(2*c.n, c.off, next)
		twice(xy, func(xy []float64) { givens(xy[:c.n], xy[c.n:], c.coef[0], c.coef[1]) })
	case "rankTwo":
		row, d, e := vec(c.n, c.off, next), vec(c.n, c.off, next), vec(c.n, c.off, next)
		twice(row, func(row []float64) { rankTwo(row, d, e, c.coef[0], c.coef[1]) })
	case "scores":
		x, theta := vec(c.n, c.off, next), vec(c.k*c.n, c.off, next)
		t := InterleaveClasses(nil, theta, c.k, c.n)
		twice(make([]float64, c.k), func(z []float64) { ClassScores(z, x, t) })
		// The per-class dot product the lanes replace (models.logitsInto's
		// order: from +0, j ascending).
		ref := make([]float64, c.k)
		for cl := range ref {
			var s float64
			for j, v := range x {
				s += v * theta[cl*c.n+j]
			}
			ref[cl] = s
		}
		refs = append(refs, ref)
	}
	return lanes, scalar, refs
}

func (c laneCase) check(t *testing.T, next func() float64) {
	t.Helper()
	lanes, scalar, refs := c.run(next)
	for _, want := range append([][]float64{scalar}, refs...) {
		for i := range want {
			if !sameBits(lanes[i], want[i]) {
				t.Fatalf("%+v: element %d is %v (%#x) with lanes, %v (%#x) without", c, i,
					lanes[i], math.Float64bits(lanes[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// Every lane kernel returns its scalar loop's bits, at every length that
// exercises the eight-, four- and one-wide paths, from unaligned starts,
// over special values and with zero coefficients (which the Go side skips).
func TestLanesMatchScalar(t *testing.T) {
	if !haveLanes {
		t.Skip("no lane kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(34))
	next := func() float64 { return nextValue(rng) }
	coef := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return next()
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, kernel := range laneKernels[:4] {
				for m := 1; m <= 4; m++ {
					c := laneCase{kernel: kernel, n: n, off: off, m: m}
					for i := range c.coef {
						c.coef[i] = coef()
					}
					c.check(t, next)
				}
			}
		}
	}
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 10, 12, 13, 16, 17, 20, 33} {
		for _, d := range []int{0, 1, 3, 7, 40, 67} {
			for off := 0; off < 4; off++ {
				laneCase{kernel: "scores", n: d, off: off, k: k}.check(t, next)
			}
		}
	}
}

// Lanes off, the wrappers are the scalar loops, and the class scores land
// where ClassScores documents them.
func TestClassScoresLayout(t *testing.T) {
	theta := []float64{1, 2, 3, 10, 20, 30} // two classes of three weights
	for _, on := range []bool{false, true} {
		func() {
			defer SetLanes(on)()
			z := make([]float64, 2)
			ClassScores(z, []float64{1, 1, 1}, InterleaveClasses(nil, theta, 2, 3))
			if z[0] != 6 || z[1] != 60 {
				t.Fatalf("lanes %v: class scores %v, want [6 60]", on, z)
			}
		}()
	}
}

// FuzzLanes drives one kernel per input: the first bytes pick the kernel,
// length, offset, row count and classes, the rest are the values (eight
// bytes each, little-endian, cycled).
func FuzzLanes(f *testing.F) {
	for i := range laneKernels {
		seed := []byte{byte(i), 13, 1, 3, 10}
		for _, v := range laneValues {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !haveLanes {
			t.Skip("no lane kernels on this CPU")
		}
		if len(data) < 5 {
			return
		}
		c := laneCase{
			kernel: laneKernels[int(data[0])%len(laneKernels)],
			n:      int(data[1]) % 80,
			off:    int(data[2]) % 4,
			m:      int(data[3])%4 + 1,
			k:      int(data[4])%20 + 1,
		}
		vals := data[5:]
		i := 0
		next := func() float64 {
			if len(vals) < 8 {
				return float64(i)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[(8*i)%(len(vals)-len(vals)%8):]))
			i++
			return v
		}
		for j := range c.coef {
			c.coef[j] = next()
		}
		c.check(t, next)
	})
}
