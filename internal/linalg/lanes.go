package linalg

// The lane kernels: the few loops the statistics and accuracy phases spend
// their time in, each a wrapper (here, and Axpy in vector.go) that runs the
// AVX2 kernel of lanes_amd64.s when lanesOn and otherwise the scalar loop
// beside it. A
// lane kernel performs exactly the scalar loop's multiplications, additions
// and subtractions, per element and in the same order, so the two paths
// return the same bits (see the package doc). Each wrapper first reslices
// every input to its output's length — s[:n:len(s)], which panics when s
// is shorter — so the assembly never reads or writes past a slice.

// Lanes reports whether the lane kernels are in use: on amd64 with AVX2.
func Lanes() bool { return lanesOn }

// SetLanes turns the lane kernels on (where the CPU has them) or off, for
// tests in any package that compare the two paths, and returns a func
// restoring the previous setting. It is not safe to call while kernels run.
func SetLanes(on bool) (restore func()) {
	prev := lanesOn
	lanesOn = on && haveLanes
	return func() { lanesOn = prev }
}

// axpyScalar is Axpy's loop.
func axpyScalar(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// rowGroup collects up to four (coefficient, row) terms of one update
// y += Σ cᵣ·rᵣ, skipping zero coefficients, so that add keeps the terms
// that contribute, compacted in the order they were offered.
type rowGroup struct {
	c    [4]float64
	rows [4][]float64
	m    int
}

// add offers the term c·row; a zero c adds nothing and is dropped.
func (g *rowGroup) add(c float64, row []float64) {
	if c != 0 {
		g.c[g.m], g.rows[g.m] = c, row
		g.m++
	}
}

// flush adds the collected terms to y in one pass over it — every element
// takes them in the order offered — and empties the group.
func (g *rowGroup) flush(y []float64) {
	if g.m == 0 {
		return
	}
	for r := range g.m {
		g.rows[r] = g.rows[r][:len(y):len(g.rows[r])]
	}
	if lanesOn {
		addRowsLanes(y, &g.c, &g.rows, g.m)
	} else {
		addRowsScalar(y, &g.c, &g.rows, g.m)
	}
	g.m = 0
}

// addRowsScalar is y[j] = (…(y[j] + c[0]·rows[0][j]) + …) + c[m−1]·rows[m−1][j]
// for 1 ≤ m ≤ 4: four terms in one pass, fewer as one Axpy pass each (the
// same adds per element).
func addRowsScalar(y []float64, c *[4]float64, rows *[4][]float64, m int) {
	if m < 4 {
		for r := range m {
			axpyScalar(c[r], rows[r][:len(y)], y)
		}
		return
	}
	x0, x1, x2, x3 := c[0], c[1], c[2], c[3]
	b0, b1, b2, b3 := rows[0][:len(y)], rows[1][:len(y)], rows[2][:len(y)], rows[3][:len(y)]
	for j := range y {
		s := y[j]
		s += x0 * b0[j]
		s += x1 * b1[j]
		s += x2 * b2[j]
		s += x3 * b3[j]
		y[j] = s
	}
}

// givens applies one plane rotation to the row pair (x, y):
// y' = s·x + c·y and x' = c·x − s·y, element by element. y must be at
// least as long as x.
func givens(x, y []float64, c, s float64) {
	y = y[:len(x):len(y)]
	if lanesOn {
		givensLanes(x, y, c, s)
		return
	}
	givensScalar(x, y, c, s)
}

func givensScalar(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		h := y[k]
		y[k] = s*xk + c*h
		x[k] = c*xk - s*h
	}
}

// rankTwo is tred2's row update row[j] −= d[j]·ek + e[j]·dk; d and e must
// be at least as long as row.
func rankTwo(row, d, e []float64, ek, dk float64) {
	d, e = d[:len(row):len(d)], e[:len(row):len(e)]
	if lanesOn {
		rankTwoLanes(row, d, e, ek, dk)
		return
	}
	rankTwoScalar(row, d, e, ek, dk)
}

func rankTwoScalar(row, d, e []float64, ek, dk float64) {
	d, e = d[:len(row)], e[:len(row)]
	for j := range row {
		row[j] -= d[j]*ek + e[j]*dk
	}
}

// ClassPad is the class count k rounded up to the lane width: the stride of
// a ClassBlock of k classes, from one feature's weights to the next.
func ClassPad(k int) int { return (k + 3) &^ 3 }

// InterleaveClasses lays the k×d class-major weights theta (class c at
// theta[c·d:(c+1)·d]) out class-interleaved for ClassScores: weight j of
// class c at j·kp + c, with k padded to kp, a multiple of four, by zero
// classes. It reuses dst's storage when it is large enough.
func InterleaveClasses(dst, theta []float64, k, d int) []float64 {
	dst = ClassBlock(dst, k, d)
	SetClasses(dst, k, 0, theta, k)
	return dst
}

// ClassBlock returns InterleaveClasses' storage for k classes of d weights,
// with its padding classes zero and the k classes left for SetClasses. It
// reuses dst's storage when it is large enough.
func ClassBlock(dst []float64, k, d int) []float64 {
	kp := ClassPad(k)
	if cap(dst) < d*kp {
		dst = make([]float64, d*kp)
	}
	dst = dst[:d*kp]
	for j := 0; j < d && k < kp; j++ {
		clear(dst[j*kp+k : (j+1)*kp])
	}
	return dst
}

// SetClasses writes the m×d class-major weights theta as classes c0 …
// c0+m−1 of t, a ClassBlock of k classes: weight j of theta's class c at
// j·kp + c0 + c.
func SetClasses(t []float64, k, c0 int, theta []float64, m int) {
	kp := ClassPad(k)
	d := len(t) / kp
	if d == 0 {
		return
	}
	for c := range m {
		col := t[c0+c:]
		for _, v := range theta[c*d : (c+1)*d] {
			col[0] = v
			col = col[min(kp, len(col)):]
		}
	}
}

// ClassScores fills z[c] = Σⱼ x[j]·θ[c·d+j] for the len(z) classes of the
// weights t = InterleaveClasses(…, θ, len(z), len(x)): each sum starts at
// +0 and adds its terms in j order, as a per-class dot product does, so z
// holds those dot products' bits. The classes are the lanes.
func ClassScores(z, x, t []float64) {
	n := len(x) * ClassPad(len(z))
	t = t[:n:len(t)]
	if lanesOn {
		scoresLanes(z, x, t)
		return
	}
	scoresScalar(z, x, t)
}

// SparseClassScores is ClassScores for a sparse row whose stored entries
// are val at the ascending feature indices idx: each sum starts at +0 and
// adds its terms in index order, as the row's dot product does. It takes the
// classes four at a time, one running sum each, over the row's entries.
func SparseClassScores(z []float64, idx []int32, val, t []float64) {
	kp := ClassPad(len(z))
	val = val[:len(idx)]
	for c0 := 0; c0 < len(z); c0 += 4 {
		var s0, s1, s2, s3 float64
		for e, j := range idx {
			v, w := val[e], t[int(j)*kp+c0:][:4]
			s0 += v * w[0]
			s1 += v * w[1]
			s2 += v * w[2]
			s3 += v * w[3]
		}
		s := [4]float64{s0, s1, s2, s3}
		copy(z[c0:], s[:])
	}
}

// ClassColumn copies class c of t, a ClassBlock of k classes, into dst,
// one weight per feature.
func ClassColumn(dst, t []float64, k, c int) {
	kp := ClassPad(k)
	for j := range dst {
		dst[j] = t[j*kp+c]
	}
}

func scoresScalar(z, x, t []float64) {
	kp := ClassPad(len(z))
	t = t[:len(x)*kp]
	for c := range z {
		var s float64
		for j, v := range x {
			s += v * t[j*kp+c]
		}
		z[c] = s
	}
}
