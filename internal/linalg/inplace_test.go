package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// requireSameBits compares with math.Float64bits, so a −0 for a +0 or a
// NaN payload counts as a difference.
func requireSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// rankKBlock returns k random rows of width n with zeros where the
// rank-k kernel branches: whole columns of four consecutive rows, single
// entries (mixed groups) and, when zeroRow, one all-zero row.
func rankKBlock(rng *rand.Rand, k, n int, zeroRow bool) *Dense {
	a := randDense(rng, k, n)
	sparsify(rng, a, 0.2)
	for r := 0; r+4 <= k; r += 4 {
		for i := 0; i < n; i += 3 {
			for q := r; q < r+4; q++ {
				a.Set(q, i, 0)
			}
		}
	}
	if zeroRow && k > 0 {
		Fill(a.Row(k/2), 0)
	}
	return a
}

// The rank-k kernel against one OuterAdd per row, for 0–9 rows (every
// remainder of the four-row blocks), on a non-zero c: the upper triangle is
// bit-identical, the lower triangle untouched, whether the rows arrive in
// one block or several and the triangle rows in one range or several.
func TestSyrkUpperAddMatchesPerRowOuterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 5, 13, 40} {
		for k := 0; k <= 9; k++ {
			for _, zeroRow := range []bool{false, true} {
				a := rankKBlock(rng, k, n, zeroRow)
				c0 := randDense(rng, n, n)
				want := c0.Clone()
				for r := 0; r < k; r++ {
					want.OuterAdd(1, a.Row(r), a.Row(r))
				}
				for i := 0; i < n; i++ { // the lower triangle stays c0's
					for j := 0; j < i; j++ {
						want.Set(i, j, c0.At(i, j))
					}
				}
				one := c0.Clone()
				SyrkUpperAdd(one, a.Data, 0, n)
				requireSameBits(t, "one block", one.Data, want.Data)

				split := c0.Clone()
				cut, lo, hi := min(3, k)*n, n/3, 2*n/3
				for _, blk := range [][]float64{a.Data[:cut], a.Data[cut:]} {
					SyrkUpperAdd(split, blk, 0, lo)
					SyrkUpperAdd(split, blk, lo, hi)
					SyrkUpperAdd(split, blk, hi, n)
				}
				requireSameBits(t, "split blocks and ranges", split.Data, want.Data)
			}
		}
	}
}

// SyrkT is the rank-k kernel over A's rows, mirrored: MatMulTransA(a, a)'s
// bits, serial and parallel.
func TestSyrkTMatchesMatMulTransA(t *testing.T) {
	for _, p := range []int{1, 4} {
		withDegree(t, p, func() {
			rng := rand.New(rand.NewSource(int64(300 + p)))
			for _, sh := range []struct{ m, k int }{{0, 3}, {1, 1}, {3, 1}, {7, 5}, {9, 40}, {130, 33}} {
				a := rankKBlock(rng, sh.m, sh.k, true)
				requireSameBits(t, "SyrkT", SyrkT(a).Data, MatMulTransA(a, a).Data)
			}
		})
	}
}

func TestTransposeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 70} {
		a := randDense(rng, n, n)
		want := a.T()
		a.TransposeInPlace()
		requireSameBits(t, "TransposeInPlace", a.Data, want.Data)
	}
}

// NewSymEig keeps its contract as a wrapper: the input — here not even
// symmetric, which the solver symmetrizes — is left bit-for-bit as it was,
// and its columns are SymEigRows' rows.
func TestNewSymEigLeavesInputUnmodified(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 9, 40} {
		a := randDense(rng, n, n)
		before := CopyVec(a.Data)
		e, err := NewSymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "NewSymEig input", a.Data, before)

		rows := a.Clone()
		values, err := SymEigRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "values", values, e.Values)
		rows.TransposeInPlace()
		requireSameBits(t, "vectors", rows.Data, e.Vectors.Data)
	}
}

// A NaN or an infinite entry has no eigendecomposition: both forms return
// ErrNonFinite instead of running tql2 off the end of its arrays.
func TestSymEigNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := randSPD(rand.New(rand.NewSource(44)), 6)
		a.Set(2, 4, bad)
		a.Set(4, 2, bad)
		if _, err := NewSymEig(a); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("NewSymEig with a %v entry: err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := SymEigRows(a); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("SymEigRows with a %v entry: err = %v, want ErrNonFinite", bad, err)
		}
	}
}
