package linalg

import "math"

// Dot returns the inner product of x and y. The slices must have equal
// length; this is the caller's responsibility (checked in debug builds via
// tests rather than per-call branching, since Dot sits on the hot path).
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies every element of x by a, in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large components by scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute element of x (0 for empty x).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// CopyVec returns a fresh copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Fill sets every element of x to a.
func Fill(x []float64, a float64) {
	for i := range x {
		x[i] = a
	}
}

// Cosine returns the cosine similarity of x and y, or 0 if either vector is
// zero. BlinkML uses 1 - Cosine as the PPCA model-difference metric
// (Appendix C of the paper).
func Cosine(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	c := Dot(x, y) / (nx * ny)
	// Clamp rounding noise so downstream 1-c stays in [0, 2].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// AllFinite reports whether every element of x is finite.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
