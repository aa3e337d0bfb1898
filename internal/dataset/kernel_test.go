package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/stat"
)

// sameBits reports whether two results are the same float64. NaNs compare
// equal whatever their payload: which operand's payload an add or multiply
// propagates is the instruction selector's choice, not an add order.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// awkward are the values a reordered or skipped add shows up on.
var awkward = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 1e-17, 1,
}

// testValue draws a normal, or with probability p one of the awkward values.
func testValue(r *rand.Rand, p float64) float64 {
	if r.Float64() < p {
		return awkward[r.Intn(len(awkward))]
	}
	return r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
}

func testDense(r *rand.Rand, d int, p float64) DenseRow {
	row := make(DenseRow, d)
	for j := range row {
		row[j] = testValue(r, p)
	}
	return row
}

func testSparse(r *rand.Rand, d int, p float64) *SparseRow {
	sp := &SparseRow{N: d}
	for j := 0; j < d; j++ {
		if r.Intn(3) == 0 {
			sp.Idx = append(sp.Idx, int32(j))
			sp.Val = append(sp.Val, testValue(r, p))
		}
	}
	return sp
}

// DotRows must return, bit for bit, what the per-row Dot returns: the block
// kernel may interleave rows but never reorder one row's adds. Dense,
// sparse, mixed and ragged blocks, every block length around the group of
// four, the benchmark dimensions, and values on which a changed order shows
// (±0, subnormals, ±Inf, NaN, cancellation at 1e308).
func TestDotRowsBitIdenticalToDot(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	kinds := map[string]func(i, d int, p float64) Row{
		"dense":  func(_, d int, p float64) Row { return testDense(r, d, p) },
		"sparse": func(_, d int, p float64) Row { return testSparse(r, d, p) },
		"mixed": func(i, d int, p float64) Row {
			if i%3 == 1 {
				return testSparse(r, d, p)
			}
			return testDense(r, d, p)
		},
		// Dense rows shorter than theta, of different lengths inside one
		// group of four.
		"ragged": func(i, d int, p float64) Row { return testDense(r, max(0, d-i%3), p) },
	}
	for kind, row := range kinds {
		for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 40, 401} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
				for _, p := range []float64{0, 0.3} {
					theta := []float64(testDense(r, d, p))
					rows := make([]Row, n)
					for i := range rows {
						rows[i] = row(i, d, p)
					}
					got := make([]float64, n)
					DotRows(rows, theta, got)
					for i, x := range rows {
						if want := x.Dot(theta); !sameBits(got[i], want) {
							t.Fatalf("%s d=%d n=%d p=%v: row %d: DotRows %v (%#x), Dot %v (%#x)",
								kind, d, n, p, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// referenceSample is SampleWithoutReplacement as it stood before the sparse
// shuffle: a partial Fisher–Yates over an N-long identity index.
func referenceSample(rng *stat.RNG, size, n int) []int {
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(size-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:n:n]
}

// The sparse shuffle must draw the reference's index sequence from the same
// RNG state and leave the RNG where the reference leaves it — drawn in one
// go or extended in steps, as a Plan extends its final sample.
func TestSampleWithoutReplacementMatchesReference(t *testing.T) {
	for _, tc := range []struct{ size, n int }{
		{1, 1}, {10, 10}, {1000, 3}, {1000, 1000}, {200000, 20000}, {4097, 4097},
	} {
		t.Run(fmt.Sprintf("%d_of_%d", tc.n, tc.size), func(t *testing.T) {
			const seed = 42
			refRNG := stat.NewRNG(seed)
			want := referenceSample(refRNG, tc.size, tc.n)
			wantNext := refRNG.Intn(1 << 30)

			rng := stat.NewRNG(seed)
			got := SampleWithoutReplacement(rng, tc.size, tc.n)
			if next := rng.Intn(1 << 30); next != wantNext {
				t.Errorf("RNG left in a different state: next draw %d, reference %d", next, wantNext)
			}

			stepRNG := stat.NewRNG(seed)
			sh := NewShuffle(tc.size)
			var views [][]int
			for _, m := range []int{tc.n / 7, tc.n / 7, tc.n / 2, tc.n} {
				views = append(views, sh.Extend(stepRNG, m))
			}
			if next := stepRNG.Intn(1 << 30); next != wantNext {
				t.Errorf("stepwise: RNG left in a different state: next draw %d, reference %d", next, wantNext)
			}
			if last := views[len(views)-1]; len(last) != tc.n {
				t.Errorf("%d indices after extending to %d", len(last), tc.n)
			}
			for _, v := range append(views, got) {
				if len(v) > len(want) {
					t.Fatalf("%d indices, reference has %d", len(v), len(want))
				}
				for i := range v {
					if v[i] != want[i] {
						t.Fatalf("index %d of a %d-prefix: %d, reference %d", i, len(v), v[i], want[i])
					}
				}
			}
			if len(got) != tc.n {
				t.Fatalf("%d indices, want %d", len(got), tc.n)
			}
		})
	}
}

var dotSink float64

// BenchmarkDotRows times the row kernel against the per-row call on the two
// shapes the estimator has: a holdout that stays in cache (2000 x 28, read
// once per sampled parameter) and a training sample scattered over a large
// pool (20 000 of 200 000 x 28, read once per objective evaluation).
func BenchmarkDotRows(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const d = 28
	pool := make([]Row, 200000)
	for i := range pool {
		pool[i] = testDense(r, d, 0)
	}
	theta := []float64(testDense(r, d, 0))
	scattered := make([]Row, 20000)
	for i, j := range SampleWithoutReplacement(stat.NewRNG(1), len(pool), len(scattered)) {
		scattered[i] = pool[j]
	}
	for _, shape := range []struct {
		name string
		rows []Row
	}{
		{"holdout-2000x28", pool[:2000]},
		{"scattered-20000of200000x28", scattered},
	} {
		out := make([]float64, len(shape.rows))
		b.Run(shape.name+"/DotRows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DotRows(shape.rows, theta, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/row")
		})
		b.Run(shape.name+"/Dot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range shape.rows {
					out[j] = x.Dot(theta)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/row")
		})
		dotSink += out[0]
	}
}
