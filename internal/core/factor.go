package core

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// Factor represents the unscaled covariance of Theorem 1 as a linear map:
// if z ~ N(0, I_rank) then Apply(z) ~ N(0, H⁻¹JH⁻¹). Draws for any sample
// size n are obtained by scaling with √(1/n − 1/N) — the paper's
// "sampling by scaling" optimization (§4.3), which lets the Sample Size
// Estimator probe many n without re-invoking a sampler.
type Factor interface {
	// Dim is the parameter dimension d.
	Dim() int
	// Rank is the latent dimension r (number of independent normal draws
	// consumed per sample).
	Rank() int
	// Apply overwrites dst (len d) with L·z (len(z) = Rank).
	Apply(z, dst []float64)
}

// Inflate wraps f so every Apply result is scaled by (1 + inflation) — the
// footnote-2 conservatism knob (Options.VarianceInflation). inflation <= 0
// returns f unchanged.
func Inflate(f Factor, inflation float64) Factor {
	if inflation <= 0 {
		return f
	}
	return &inflatedFactor{f: f, s: 1 + inflation}
}

type inflatedFactor struct {
	f Factor
	s float64
}

// Dim implements Factor.
func (f *inflatedFactor) Dim() int { return f.f.Dim() }

// Rank implements Factor.
func (f *inflatedFactor) Rank() int { return f.f.Rank() }

// Apply implements Factor.
func (f *inflatedFactor) Apply(z, dst []float64) {
	f.f.Apply(z, dst)
	linalg.Scale(f.s, dst)
}

// DenseFactor holds an explicit d x r factor L with L·Lᵀ = H⁻¹JH⁻¹. It is
// produced by the ClosedForm and InverseGradients methods and by
// ObservedFisher when d ≤ n.
type DenseFactor struct {
	L *linalg.Dense
}

// Dim implements Factor.
func (f *DenseFactor) Dim() int { return f.L.Rows }

// Rank implements Factor.
func (f *DenseFactor) Rank() int { return f.L.Cols }

// Apply implements Factor.
func (f *DenseFactor) Apply(z, dst []float64) {
	f.L.MulVec(z, dst)
}

// GradFactor represents L = Q_cᵀ·M without materializing the d x r matrix:
// Q_c is the mean-centered per-example gradient matrix (rows kept sparse)
// and M is a small n x r matrix derived from the Gram-side
// eigendecomposition. Apply costs O(n·r + nnz(Q)), which is how the
// ObservedFisher path keeps memory and time at O(d) for high-dimensional
// models (paper §3.4, §4.3).
type GradFactor struct {
	rows []dataset.Row // qᵢ, uncentered
	mean []float64     // q̄
	m    *linalg.Dense // n x r
	dim  int
}

// Dim implements Factor.
func (f *GradFactor) Dim() int { return f.dim }

// Rank implements Factor.
func (f *GradFactor) Rank() int { return f.m.Cols }

// Apply implements Factor: dst = Σᵢ uᵢ·qᵢ − (Σᵢ uᵢ)·q̄ with u = M·z.
func (f *GradFactor) Apply(z, dst []float64) {
	n := len(f.rows)
	u := make([]float64, n)
	f.m.MulVec(z, u)
	linalg.Fill(dst, 0)
	var uSum float64
	for i, row := range f.rows {
		if u[i] != 0 {
			row.AddTo(dst, u[i])
		}
		uSum += u[i]
	}
	linalg.Axpy(-uSum, f.mean, dst)
}

// Covariance materializes L·Lᵀ for diagnostics on low-dimensional problems
// (a lazy factor's L is recovered column by column from unit vectors, which
// defeats the purpose of the lazy form at scale).
func Covariance(f Factor) *linalg.Dense {
	if dense, ok := f.(*DenseFactor); ok {
		return linalg.Syrk(dense.L)
	}
	d, r := f.Dim(), f.Rank()
	l := linalg.NewDense(d, r)
	z := make([]float64, r)
	col := make([]float64, d)
	for j := 0; j < r; j++ {
		z[j] = 1
		f.Apply(z, col)
		for i := 0; i < d; i++ {
			l.Set(i, j, col[i])
		}
		z[j] = 0
	}
	return linalg.Syrk(l) // L·Lᵀ without computing both triangles
}

// factorBytes is the memory a factor keeps alive (nil counts nothing).
func factorBytes(f Factor) int64 {
	switch f := f.(type) {
	case nil:
		return 0
	case *inflatedFactor:
		return factorBytes(f.f)
	case *GradFactor:
		return datasetBytes(&dataset.Dataset{X: f.rows}) + int64(len(f.mean)+len(f.m.Data))*8
	default:
		return int64(f.Dim()) * int64(f.Rank()) * 8
	}
}
