package core

import (
	"errors"
	"fmt"
	"math"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
)

// Statistics packages the Theorem-1 quantities computed at a trained
// parameter θ_n: a sampling factor for N(0, H⁻¹JH⁻¹).
type Statistics struct {
	Factor Factor
	// Rank of the factor (number of informative directions kept).
	Rank int
	// GradsCalls counts invocations of the MCS grads primitive, the cost
	// driver compared in Figure 9b (ObservedFisher: 1; InverseGradients:
	// d+1).
	GradsCalls int
	// kernels and flops count the dense work the method ran on the shapes
	// and row nnz it visited, by the classical operation counts: a
	// symmetric rank-k product of m-vectors m(m+1)k, an LU (2/3)d³, a
	// triangular solve pair 2d² per right-hand side and the tred2/tql2
	// eigensolve 4n³. linalg charges nothing; these are the one copy.
	kernels int
	flops   int64
}

// eigFlops is the eigensolve's 4n³ on an n x n matrix.
func eigFlops(n int) int64 { return 4 * int64(n) * int64(n) * int64(n) }

// ComputeStatistics computes the sampling statistics for spec at theta
// using the sample the model was trained on (paper §3.4).
func ComputeStatistics(spec models.Spec, sample *dataset.Dataset, theta []float64, opt Options) (*Statistics, error) {
	opt = opt.WithDefaults()
	if len(theta) == 0 {
		return nil, errors.New("core: cannot compute statistics for a model with no parameters")
	}
	switch opt.Method {
	case ObservedFisher:
		return observedFisher(spec, sample, theta, opt)
	case InverseGradients:
		return inverseGradients(spec, sample, theta, opt)
	case ClosedForm:
		return closedForm(spec, sample, theta, opt)
	default:
		return nil, fmt.Errorf("core: unknown statistics method %v", opt.Method)
	}
}

// observedFisher implements §3.4 Method 3: J is the (centered) second
// moment of the per-example gradients (information-matrix equality), H =
// J + βI, and the factor is built from whichever Gram side is smaller —
// the d x d covariance when d ≤ n, the n x n gradient Gram matrix when
// d > n. Cost: O(min(n²d, nd²)), one grads call. The covariance side never
// holds more than a chunk's gradient rows, dense or sparse; the Gram side
// keeps all n, O(nnz) each, which its factor goes on to use. On the
// covariance side the mean's chunk partials merge in J's tree: at degree 1
// that is the serial row-order sum, at degree > 1 a different association
// than the Gram side's serial mean — deterministic at each degree, like
// every other reduction here.
func observedFisher(spec models.Spec, sample *dataset.Dataset, theta []float64, opt Options) (*Statistics, error) {
	n := sample.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: cannot compute statistics from an empty sample")
	}
	d := len(theta)
	beta := spec.Beta()
	if d <= n {
		return fisherCovarianceSide(spec, sample, theta, beta, opt)
	}
	rows := models.PerExampleGradRows(spec, sample, theta)
	mean := make([]float64, d)
	for _, r := range rows {
		r.AddTo(mean, 1)
	}
	linalg.Scale(1/float64(n), mean)
	return fisherGramSide(rows, mean, d, n, beta, opt)
}

// fisherCovarianceSide eigendecomposes J = (1/n)Q_cᵀQ_c directly (d x d).
// The gradient rows fold into the sums they feed as they are made: each
// chunk of the sample on the compute pool owns one d·d+d partial, the upper
// triangle of Σ qᵢqᵢᵀ followed by Σ qᵢ, each added in row order. The loop
// follows the sample's first row, and either accepts every row type. After
// a dense row the rows are made four at a time into one 4×d block
// (models.GradRowsInto) and the block's outer products added with
// linalg.SyrkUpperAdd. After a *dataset.SparseRow they are made one at a
// time (models.GradRow) into the chunk's scratch: a score model's gathered
// row scatters its outer product on its nnz x nnz block, a dense one (PPCA)
// adds it whole. The partials merge in tree order. J's upper triangle is then
// centered and mirrored: the product of two gradient entries commutes, so
// the lower triangle it replaces held the same bits.
func fisherCovarianceSide(spec models.Spec, sample *dataset.Dataset, theta []float64, beta float64, opt Options) (*Statistics, error) {
	n, d := sample.Len(), len(theta)
	_, sparse := sample.X[0].(*dataset.SparseRow)
	// d x d scratch per chunk: require chunks to be worth their memory.
	chunks := compute.Chunks(n, 64+d/4)
	parts := make([][]float64, chunks)
	// J's build counts as Syrk does, m(m+1) per gradient row of m entries.
	builds := make([]int64, chunks)
	compute.ForChunksN(n, chunks, func(chunk, lo, hi int) {
		part := make([]float64, d*d+d)
		parts[chunk] = part
		acc, sum := linalg.NewDenseFrom(d, d, part[:d*d]), part[d*d:]
		if sparse {
			scratch := make([]float64, d)
			var sp dataset.SparseRow
			for i := lo; i < hi; i++ {
				q := models.GradRow(spec, sample, theta, i, scratch, &sp)
				q.AddTo(sum, 1)
				m := int64(q.NNZ())
				builds[chunk] += m * (m + 1)
				if r, ok := q.(*dataset.SparseRow); ok {
					linalg.SpOuterAdd(acc, 1, r.Idx, r.Val)
					continue
				}
				r := q.(dataset.DenseRow)
				acc.OuterAdd(1, r, r)
				linalg.Fill(r, 0)
			}
			return
		}
		builds[chunk] = int64(hi-lo) * int64(d) * int64(d+1)
		block := make([]float64, 4*d)
		for i := lo; i < hi; i += 4 {
			end := min(i+4, hi)
			b := block[:(end-i)*d]
			models.GradRowsInto(spec, sample, theta, i, end, b)
			for r := 0; r < len(b); r += d {
				dataset.DenseRow(b[r:r+d]).AddTo(sum, 1)
			}
			linalg.SyrkUpperAdd(acc, b, 0, d)
		}
	})
	all := compute.ReduceVecs(parts)
	j, mean := linalg.NewDenseFrom(d, d, all[:d*d]), all[d*d:]
	inv := 1 / float64(n)
	linalg.Scale(inv, mean)
	for i := 0; i < d; i++ {
		upper := j.Row(i)[i:]
		linalg.Scale(inv, upper)
		linalg.Axpy(-mean[i], mean[i:], upper)
	}
	j.MirrorUpper()

	values, err := eigRows(j, "ObservedFisher covariance")
	if err != nil {
		return nil, err
	}
	// L = V·diag(√μ/(μ+β)) over the informative eigenpairs (μ, v) of J.
	l := scaledEigvecs(values, j, opt.SVDRelTol, func(mu float64) float64 { return math.Sqrt(mu) / (mu + beta) })
	var build int64
	for _, b := range builds {
		build += b
	}
	return &Statistics{Factor: &DenseFactor{L: l}, Rank: l.Cols, GradsCalls: 1,
		kernels: 2, flops: build + eigFlops(d)}, nil
}

// fisherGramSide eigendecomposes the centered Gram matrix G = Q_cQ_cᵀ
// (n x n) and represents L = Q_cᵀ·M lazily (paper §3.4 Eq. 6 + §4.3).
func fisherGramSide(rows []dataset.Row, mean []float64, d, n int, beta float64, opt Options) (*Statistics, error) {
	// a_i = q_i·q̄, m̄ = q̄·q̄ give the centering correction
	// G_ij = q_i·q_j − a_i − a_j + m̄.
	a := make([]float64, n)
	compute.For(n, 128, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = rows[i].Dot(mean)
		}
	})
	mbar := linalg.Dot(mean, mean)
	g := linalg.NewDense(n, n)
	// Only the upper triangle is computed (row i costs n−i dot products),
	// so the row ranges are cost-balanced across the pool; every element
	// is written by exactly one range, making the result trivially
	// deterministic. Each range keeps one all-zero scratch: scatter row i
	// into it, take the row of dots, undo the scatter. q + (−q) is an exact
	// +0, so every row sees what a fresh dense fill would hold, at O(nnz)
	// setup for sparse rows — what matters when d ≫ nnz — and O(d) for dense.
	ranges := compute.TriangleRanges(n)
	compute.Run(len(ranges), func(t int) {
		scratch := make([]float64, d)
		for i := ranges[t].Lo; i < ranges[t].Hi; i++ {
			rows[i].AddTo(scratch, 1)
			grow := g.Row(i)
			for jj := i; jj < n; jj++ {
				grow[jj] = rows[jj].Dot(scratch) - a[i] - a[jj] + mbar
			}
			rows[i].AddTo(scratch, -1)
		}
	})
	g.MirrorUpper()
	values, err := eigRows(g, "ObservedFisher Gram")
	if err != nil {
		return nil, err
	}
	// Eigenvalues of G are s² = n·μ; M = U·diag(1/(√n·(μ+β))).
	sqrtN := math.Sqrt(float64(n))
	m := scaledEigvecs(values, g, opt.SVDRelTol, func(lam float64) float64 {
		mu := lam / float64(n)
		if beta == 0 && mu <= 0 {
			return 0
		}
		return 1 / (sqrtN * (mu + beta))
	})
	// G's upper triangle dots row j with rows 0..j, 2·nnz_j flops each.
	var build int64
	for j, r := range rows {
		build += 2 * int64(r.NNZ()) * int64(j+1)
	}
	return &Statistics{
		Factor:     &GradFactor{rows: rows, mean: mean, m: m, dim: d},
		Rank:       m.Cols,
		GradsCalls: 1,
		kernels:    2,
		flops:      build + eigFlops(n),
	}, nil
}

// eigRows eigensolves the symmetric statistics matrix m in place
// (linalg.SymEigRows: m is consumed, eigenvector j left in row j), for
// scaledEigvecs to build the factor in the same storage: a statistics
// method holds one n x n matrix, not the matrix and its factor. what names
// the matrix in the error; a non-finite one is ErrNonFiniteFisher.
func eigRows(m *linalg.Dense, what string) ([]float64, error) {
	values, err := linalg.SymEigRows(m)
	switch {
	case errors.Is(err, linalg.ErrNonFinite):
		return nil, fmt.Errorf("%w (%s): %w", ErrNonFiniteFisher, what, err)
	case err != nil:
		return nil, fmt.Errorf("core: %s eigendecomposition failed: %w", what, err)
	}
	return values, nil
}

// scaledEigvecs is the tail all three statistics methods end in: keep the
// eigenpairs whose eigenvalue is positive and above relTol²·λ_max (the
// informative directions), and return the kept eigenvectors — row j of
// vecs for values[j], as eigRows leaves them — as columns, column j scaled
// by scale(λ_j). The factor's rank is the column count.
//
// vecs is consumed: the n x rank factor is built in its storage, which the
// result keeps (capacity n²; a rank-0 result keeps none). After an in-place transpose row i holds
// coordinate i of every eigenvector, and a forward pass compacts row i's
// first rank entries, scaled, to data[i·rank:]. No destination index
// exceeds its source, and row i's writes end before row i+1's source
// begins, so every value is read before it is overwritten. Each entry is
// still c_j·v of the same operands.
func scaledEigvecs(values []float64, vecs *linalg.Dense, relTol float64, scale func(lam float64) float64) *linalg.Dense {
	n := len(values)
	cut := relTol * relTol * math.Max(values[0], 0)
	rank := 0
	for rank < n && values[rank] > cut && values[rank] > 0 {
		rank++
	}
	if rank == 0 {
		return linalg.NewDenseFrom(n, 0, nil)
	}
	c := make([]float64, rank)
	for j := range c {
		c[j] = scale(values[j])
	}
	vecs.TransposeInPlace()
	data := vecs.Data
	for i := 0; i < n; i++ {
		src, dst := data[i*n:i*n+rank], data[i*rank:i*rank+rank]
		for j, cj := range c {
			dst[j] = cj * src[j]
		}
	}
	return linalg.NewDenseFrom(n, rank, data[:n*rank])
}

// closedForm implements §3.4 Method 1: the model supplies H(θ) analytically
// and J = H − βI (the Jacobian of g − r). The Hessian it returns is
// statsFromHessian's to consume.
func closedForm(spec models.Spec, sample *dataset.Dataset, theta []float64, opt Options) (*Statistics, error) {
	hs, ok := spec.(models.Hessianer)
	if !ok {
		return nil, ErrNoHessian
	}
	h := hs.Hessian(theta, sample)
	return statsFromHessian(h, spec.Beta(), 0, opt)
}

// inverseGradients implements §3.4 Method 2: H ≈ R·P⁻¹ with P = ϵI, i.e.
// column j of H is (g(θ+ϵe_j) − g(θ))/ϵ. Needs d+1 grads calls — the cost
// compared against ObservedFisher in Figure 9b — all through one
// models.Objective, the d perturbed gradients into one reused buffer (Eval
// zeroes it first), so H is the only d x d matrix it makes.
func inverseGradients(spec models.Spec, sample *dataset.Dataset, theta []float64, opt Options) (*Statistics, error) {
	d := len(theta)
	p := models.Objective(spec, sample)
	g0, gj := make([]float64, d), make([]float64, d)
	p.Eval(theta, g0)
	h := linalg.NewDense(d, d)
	pert := linalg.CopyVec(theta)
	for j := 0; j < d; j++ {
		pert[j] = theta[j] + opt.FDStep
		p.Eval(pert, gj)
		pert[j] = theta[j]
		for i, g := range gj {
			h.Set(i, j, (g-g0[i])/opt.FDStep)
		}
	}
	h.Symmetrize()
	return statsFromHessian(h, spec.Beta(), d+1, opt)
}

// statsFromHessian turns an explicit H into a factor for H⁻¹JH⁻¹ with
// J = H − βI, via a symmetric eigendecomposition (negative eigenvalues from
// sampling noise are clamped to zero — the footnote-2 treatment of
// not-fully-converged optima). It consumes h: once H is factored (NewLU
// keeps its own copy), h becomes J, SolveCols turns it into H⁻¹J and
// SolveRows into (H⁻¹JH⁻¹)ᵀ — row j solved is column j of H⁻¹(H⁻¹J)ᵀ — and
// Symmetrize makes that the bits of H⁻¹JH⁻¹ symmetrized, since
// (a+b)/2 = (b+a)/2. eigRows and scaledEigvecs then build L in the same
// storage, so the method holds H and its LU and no third d x d matrix.
func statsFromHessian(h *linalg.Dense, beta float64, gradsCalls int, opt Options) (*Statistics, error) {
	d := h.Rows
	lus := 1
	lu, err := linalg.NewLU(h)
	if err != nil {
		// H is singular (e.g. collinear features with β = 0): regularize
		// minimally and retry so the estimator can still answer.
		hj := h.Clone()
		hj.AddDiag(1e-8 * (1 + h.FrobeniusNorm()/float64(d)))
		lus++
		lu, err = linalg.NewLU(hj)
		if err != nil {
			return nil, fmt.Errorf("core: Hessian is singular: %w", err)
		}
	}
	h.AddDiag(-beta) // J
	lu.SolveCols(h)  // H⁻¹J
	lu.SolveRows(h)  // (H⁻¹JH⁻¹)ᵀ
	h.Symmetrize()
	values, err := eigRows(h, "covariance")
	if err != nil {
		return nil, err
	}
	l := scaledEigvecs(values, h, opt.SVDRelTol, math.Sqrt)
	// An LU is (2/3)d³ per attempt, each solve 2d² per right-hand side.
	d3 := int64(d) * int64(d) * int64(d)
	return &Statistics{Factor: &DenseFactor{L: l}, Rank: l.Cols, GradsCalls: gradsCalls,
		kernels: lus + 3, flops: int64(lus)*(2*d3/3) + 2*(2*d3) + eigFlops(d)}, nil
}

// Alpha returns the Theorem-1 covariance scale α = 1/n − 1/N, clamped at
// zero for n ≥ N.
func Alpha(n, N int) float64 {
	if n >= N {
		return 0
	}
	return 1/float64(n) - 1/float64(N)
}
