package linalg

import "math"

// The logistic link: the loss −log Pr(y|x) and the gradient coefficient
// σ(z)−y of a logistic model at the linear predictor z, for a block of rows
// at a time. Its lane kernel (logisticLinkLanes, lanes_amd64.s) is the one
// lane kernel that fuses: it copies math.Exp's FMA branch instruction for
// instruction and math.Log1p's operations, and it is selected only where
// an init self-check finds it returning this file's scalar link bit for bit
// (see haveLink and the package doc).

// LogisticLinkAt is the logistic link at one point: the loss log(1+e^z) − y·z
// and the coefficient σ(z) − y. A single exp serves both: each branch
// computes t = e^{-|z|} once and derives σ(z) and the softplus from it (the
// z ≥ 0 loss uses the z + log1p(e^{-z}) form, which needs no overflow
// cutoff). It is the link kernel's scalar reference.
func LogisticLinkAt(z, y float64) (loss, coef float64) {
	if z >= 0 {
		t := math.Exp(-z)
		return z + math.Log1p(t) - y*z, 1/(1+t) - y
	}
	e := math.Exp(z)
	return math.Log1p(e) - y*z, e/(1+e) - y
}

// LogisticLink fills loss[i], coef[i] = LogisticLinkAt(z[i], y[i]) for
// i < len(z), bit for bit; y, loss and coef must be at least as long as z.
func LogisticLink(z, y, loss, coef []float64) {
	logisticLink(z, y, loss, coef, lanesOn && haveLink)
}

// logisticLink is LogisticLink on the lanes or not. The kernel takes groups
// of four from the front and stops before a group holding a lane it does
// not cover; that group, and the fewer than four elements at the end, go
// through the scalar link.
func logisticLink(z, y, loss, coef []float64, lanes bool) {
	n := len(z)
	y, loss, coef = y[:n:len(y)], loss[:n:len(loss)], coef[:n:len(coef)]
	i := 0
	for lanes {
		i += logisticLinkLanes(z[i:], y[i:], loss[i:], coef[i:])
		if n-i < 4 {
			break
		}
		for end := i + 4; i < end; i++ {
			loss[i], coef[i] = LogisticLinkAt(z[i], y[i])
		}
	}
	for ; i < n; i++ {
		loss[i], coef[i] = LogisticLinkAt(z[i], y[i])
	}
}

// linkProbe is the self-check's input: z = ±0.05·k for k < 200, then the
// edge values (the t < 2⁻²⁹ cutoff near ±20.1, log1p's √2−1 switch near
// ±0.8814, the exp underflow near ±708 and ±745, the non-finite values),
// with labels alternating 0 and 1.
func linkProbe() (z, y []float64) {
	for k := range 200 {
		z = append(z, 0.05*float64(k), -0.05*float64(k))
	}
	for _, v := range []float64{20.1, 20.101268, 20.2, 0.8813735870195429, 0.88137358701954305, 708, 745, 1e300, math.Inf(1)} {
		z = append(z, v, -v)
	}
	z = append(z, math.NaN())
	for i := range z {
		y = append(y, float64(i%2))
	}
	return z, y
}

// linkMatches reports whether the link kernel returns the scalar link's
// bits on every probe point.
func linkMatches() bool {
	z, y := linkProbe()
	loss, coef := make([]float64, len(z)), make([]float64, len(z))
	logisticLink(z, y, loss, coef, true)
	for i := range z {
		l, c := LogisticLinkAt(z[i], y[i])
		if !sameBits(loss[i], l) || !sameBits(coef[i], c) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b are the same float64, bit for bit, where
// all NaNs count as one value: when both operands of an add are NaN, x86
// keeps the first operand's payload, and the Go compiler picks operand order
// per site, so a NaN's payload is not something either path defines.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
