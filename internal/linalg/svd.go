package linalg

import "math"

// ThinSVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ
// with only the leading rank components kept (singular values below a
// relative tolerance are dropped).
type ThinSVD struct {
	U *Dense    // a.Rows x rank, orthonormal columns
	S []float64 // rank singular values, descending
	V *Dense    // a.Cols x rank, orthonormal columns
}

// Rank returns the numerical rank kept in the decomposition.
func (s *ThinSVD) Rank() int { return len(s.S) }

// NewThinSVD computes a thin SVD of a through the Gram matrix of the
// smaller side: when Cols <= Rows it eigendecomposes AᵀA (Cols x Cols),
// otherwise AAᵀ (Rows x Rows), then recovers the other factor by a single
// matrix product. The cost is O(min(r,c)³ + r·c·min(r,c)), which is the
// O(min(n²d, nd²)) ObservedFisher bound claimed in the paper (§3.4).
//
// relTol drops singular values below relTol * s_max; pass 0 for the default
// (1e-10). The dropped directions correspond to the null space of the
// per-example gradient matrix, where the Fisher information carries no
// signal.
func NewThinSVD(a *Dense, relTol float64) (*ThinSVD, error) {
	if relTol <= 0 {
		relTol = 1e-10
	}
	if a.Cols <= a.Rows {
		return svdViaGram(a, relTol, false)
	}
	return svdViaGram(a, relTol, true)
}

// svdViaGram eigendecomposes the Gram matrix of the smaller side. When
// transposed is false the small side is the columns (AᵀA); when true the
// small side is the rows (AAᵀ).
func svdViaGram(a *Dense, relTol float64, transposed bool) (*ThinSVD, error) {
	var gram *Dense
	if transposed {
		gram = Syrk(a) // A*Aᵀ, Rows x Rows
	} else {
		gram = SyrkT(a) // Aᵀ*A, Cols x Cols
	}
	// The Gram matrix is ours: eigensolve it in place, eigenvector j in row j.
	values, err := SymEigRows(gram)
	if err != nil {
		return nil, err
	}
	n := len(values)
	// Numerical rank: eigenvalues are s², so the cutoff is (relTol*sMax)².
	sMax := 0.0
	if n > 0 && values[0] > 0 {
		sMax = math.Sqrt(values[0])
	}
	cut := relTol * sMax
	rank := 0
	for rank < n {
		ev := values[rank]
		if ev <= 0 || math.Sqrt(ev) <= cut {
			break
		}
		rank++
	}
	s := make([]float64, rank)
	small := NewDense(gram.Rows, rank) // eigenvectors of the Gram side
	for j := 0; j < rank; j++ {
		s[j] = math.Sqrt(values[j])
		for i, v := range gram.Row(j) {
			small.Set(i, j, v)
		}
	}
	// Recover the big-side factor: big = A*small*diag(1/s) (or Aᵀ…).
	var big *Dense
	if transposed {
		big = MatMulTransA(a, small) // Aᵀ * U_rows → Cols x rank (this is V)
	} else {
		big = MatMul(a, small) // A * V → Rows x rank (this is U)
	}
	for j := 0; j < rank; j++ {
		inv := 1 / s[j]
		for i := 0; i < big.Rows; i++ {
			big.Set(i, j, big.At(i, j)*inv)
		}
	}
	if transposed {
		return &ThinSVD{U: small, S: s, V: big}, nil
	}
	return &ThinSVD{U: big, S: s, V: small}, nil
}
