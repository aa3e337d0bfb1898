package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// linkEdges are the z the link kernel must hand to the scalar link or get
// right at the seam: signed zeros, non-finite values, the t < 2⁻²⁹ cutoff
// near ±20.1, log1p's √2−1 switch near ±0.8814, and the exp underflow near
// ±708 and ±745.
var linkEdges = func() []float64 {
	z := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e-300}
	for _, c := range []float64{20.101268, 0.8813735870195429, 708, 745} {
		for _, v := range []float64{c, math.Nextafter(c, 0), math.Nextafter(c, 100), c - 1e-6, c + 1e-6} {
			z = append(z, v, -v)
		}
	}
	// The exact cutoffs: t = e^{-|z|} at 2⁻²⁹ and at √2−1.
	for _, t := range []float64{1.0 / (1 << 29), math.Sqrt2 - 1} {
		c := -math.Log(t)
		for u := -4; u <= 4; u++ {
			v := c + float64(u)*c*0x1p-52
			z = append(z, v, -v)
		}
	}
	return z
}()

// nextLinkInput draws z: an edge value one time in eight, a random bit
// pattern one time in eight, and otherwise a normal variate at a random
// scale; and y: 0 or 1 mostly, any lane value now and then.
func nextLinkInput(rng *rand.Rand) (z, y float64) {
	switch rng.Intn(8) {
	case 0:
		z = linkEdges[rng.Intn(len(linkEdges))]
	case 1:
		z = math.Float64frombits(rng.Uint64())
	default:
		z = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-1))
	}
	y = float64(rng.Intn(2))
	if rng.Intn(8) == 0 {
		y = nextValue(rng)
	}
	return z, y
}

// checkLink runs LogisticLink over z and y cut at element offset off of
// larger buffers and compares every output with LogisticLinkAt's.
func checkLink(t *testing.T, z, y []float64, off int) {
	t.Helper()
	n := len(z)
	at := func(s []float64) []float64 {
		buf := make([]float64, off+n+3)[off : off+n]
		copy(buf, s)
		return buf
	}
	z, y = at(z), at(y)
	loss, coef := at(nil), at(nil)
	LogisticLink(z, y, loss, coef)
	for i := range z {
		l, c := LogisticLinkAt(z[i], y[i])
		if !sameBits(loss[i], l) || !sameBits(coef[i], c) {
			t.Fatalf("z = %v (%#x), y = %v, element %d of %d at offset %d: loss %#x coef %#x, scalar loss %#x coef %#x",
				z[i], math.Float64bits(z[i]), y[i], i, n, off,
				math.Float64bits(loss[i]), math.Float64bits(coef[i]), math.Float64bits(l), math.Float64bits(c))
		}
	}
}

// The link kernel returns the scalar link's bits: at every length that
// leaves a tail, from unaligned starts, over the edge values mixed into
// groups with ordinary ones, and over random bit patterns.
func TestLogisticLinkMatchesScalar(t *testing.T) {
	if !lanesOn || !haveLink {
		t.Skip("the link kernel is off: lanes, FMA or the self-check")
	}
	ordinary := []float64{0.3, -1.7, 2.5, -0.01, 20, -20, 0.88, -0.9}
	if done := logisticLinkLanes(ordinary, make([]float64, 8), make([]float64, 8), make([]float64, 8)); done != 8 {
		t.Fatalf("the kernel did %d of 8 ordinary elements, so it proves nothing", done)
	}
	rng := rand.New(rand.NewSource(35))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			z, y := make([]float64, n), make([]float64, n)
			for i := range z {
				z[i], y[i] = nextLinkInput(rng)
			}
			checkLink(t, z, y, off)
		}
	}
	// Every edge value in each lane of an otherwise ordinary group.
	for _, e := range linkEdges {
		for lane := range 4 {
			z, y := []float64{0.3, -1.7, 2.5, -0.01}, []float64{1, 0, 0, 1}
			z[lane] = e
			checkLink(t, z, y, 0)
		}
	}
	// A dense sweep through the range the kernel covers.
	z := make([]float64, 0, 1<<16)
	for i := range cap(z) {
		z = append(z, -25+50*float64(i)/float64(cap(z)))
	}
	checkLink(t, z, make([]float64, len(z)), 1)
	for i := range z {
		z[i] = math.Float64frombits(rng.Uint64())
	}
	checkLink(t, z, make([]float64, len(z)), 2)
}

// FuzzLogisticLink drives the link over the input's eight-byte values:
// z from the even ones, y from the odd ones, at the offset the first byte
// picks.
func FuzzLogisticLink(f *testing.F) {
	seed := []byte{1}
	for _, z := range linkEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(z))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(1))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !lanesOn || !haveLink {
			t.Skip("the link kernel is off: lanes, FMA or the self-check")
		}
		if len(data) < 1 {
			return
		}
		off, vals := int(data[0])%4, data[1:]
		var z, y []float64
		for len(vals) >= 16 {
			z = append(z, math.Float64frombits(binary.LittleEndian.Uint64(vals)))
			y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(vals[8:])))
			vals = vals[16:]
		}
		checkLink(t, z, y, off)
	})
}

// BenchmarkLogisticLink times one 64-row block of the link — glmLossGrad's
// block — on the lanes and on the scalar link.
func BenchmarkLogisticLink(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	z, y, loss, coef := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range z {
		z[i], y[i] = rng.NormFloat64()*2, float64(rng.Intn(2))
	}
	for _, on := range []bool{true, false} {
		name := "lanes"
		if !on {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			defer SetLanes(on)()
			for range b.N {
				LogisticLink(z, y, loss, coef)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
