package models

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// PPCA is probabilistic principal component analysis (Tipping & Bishop),
// the unsupervised model class of the paper (§2.2, Appendix A). The
// parameter vector flattens the d x q factor-loading matrix W row-major:
// θ[i·q + j] = W_{ij}. The noise variance σ² is a derived quantity (the
// paper: "the optimal value for σ can be obtained once the values for Θ are
// determined"); TrainCustom records it on the spec so the per-example
// gradient evaluations at the trained parameter use the matching σ².
//
// Per-example gradient (Appendix A): q(Θ;xᵢ) = C⁻¹Θ − C⁻¹xᵢxᵢᵀC⁻¹Θ with
// C = ΘΘᵀ + σ²I, evaluated through the Woodbury identity so no d x d matrix
// is ever formed.
type PPCA struct {
	Factors int // q, number of factors (default 10, as in the paper §5.1)

	// sigmaSqBits holds math.Float64bits of the recorded noise variance
	// (0 means "not yet trained", read as 1.0). Atomic so that the
	// pool-parallel per-example gradient evaluations never serialize on a
	// lock.
	sigmaSqBits atomic.Uint64
	// cache holds the per-θ quantities shared by every example; an
	// immutable snapshot swapped atomically (racing recomputations for
	// the same θ are idempotent).
	cache atomic.Pointer[ppcaCache]
}

// ppcaCache is an immutable snapshot of the per-θ PPCA quantities.
type ppcaCache struct {
	theta   []float64
	w       *linalg.Dense // W over theta, d x q
	minv    *linalg.Dense // (σ²I + WᵀW)⁻¹, q x q
	a       *linalg.Dense // C⁻¹W = W·Minv, d x q
	sigmaSq float64
	logDetC float64 // log|C|
}

// NewPPCA returns a PPCA spec with q factors.
func NewPPCA(q int) *PPCA { return &PPCA{Factors: q} }

// Name implements Spec.
func (*PPCA) Name() string { return "ppca" }

// Task implements Spec.
func (*PPCA) Task() dataset.Task { return dataset.Unsupervised }

// ParamDim implements Spec.
func (m *PPCA) ParamDim(ds *dataset.Dataset) int { return ds.Dim * m.q() }

func (m *PPCA) q() int {
	if m.Factors > 0 {
		return m.Factors
	}
	return 10
}

// Beta implements Spec: PPCA is unregularized (r(θ) = 0).
func (*PPCA) Beta() float64 { return 0 }

// SigmaSq returns the noise variance recorded by the last TrainCustom call
// (1.0 before any training).
func (m *PPCA) SigmaSq() float64 {
	bits := m.sigmaSqBits.Load()
	if bits == 0 {
		return 1
	}
	s := math.Float64frombits(bits)
	if s <= 0 {
		return 1
	}
	return s
}

// RestoreSigmaSq reinstates a previously recorded noise variance on the
// spec (deserialization support): gradient and likelihood evaluations at a
// stored θ need the σ² that TrainCustom originally found. Non-positive
// values are ignored.
func (m *PPCA) RestoreSigmaSq(s float64) {
	if s <= 0 {
		return
	}
	m.sigmaSqBits.Store(math.Float64bits(s))
	m.cache.Store(nil)
}

// TrainCustom implements CustomTrainer with the closed-form PPCA MLE: the
// top-q eigenpairs of the sample second-moment matrix S = (1/n)Σ xᵢxᵢᵀ give
// W = V_q(Λ_q − σ²I)^{1/2} and σ² = mean of the discarded eigenvalues.
// The eigenpairs come from the smaller Gram side of the densified n x d data
// matrix A, whose eigenvalues are A's squared singular values s_j², so
// λ_j = s_j²/n. When d ≤ n that is AᵀA (d x d), and its eigenvector j is
// v_j itself; when d > n it is AAᵀ (n x n), and only the kept eigenvectors
// u_j are carried over to v_j = Aᵀu_j/s_j. At most q directions are kept,
// and only those with s_j > 10⁻¹⁰·s_max: a sample of rank below q leaves
// the trailing columns of W zero.
// Columns are sign-canonicalized (largest-magnitude entry positive) so that
// independently trained models are comparable by cosine similarity.
func (m *PPCA) TrainCustom(ds *dataset.Dataset) ([]float64, int, error) {
	n, d, q := ds.Len(), ds.Dim, m.q()
	if q >= d {
		return nil, 0, fmt.Errorf("models: PPCA needs q < d, got q=%d d=%d", q, d)
	}
	if n < 2 {
		return nil, 0, errors.New("models: PPCA needs at least 2 rows")
	}
	a := linalg.NewDense(n, d)
	var trace float64
	for i := 0; i < n; i++ {
		row := a.Row(i)
		ds.X[i].AddTo(row, 1)
		trace += linalg.Dot(row, row)
	}
	trace /= float64(n)
	var gram *linalg.Dense
	if d <= n {
		gram = linalg.SyrkT(a) // AᵀA, d x d
	} else {
		gram = linalg.Syrk(a) // AAᵀ, n x n
	}
	// Eigensolved in place: eigenvector j in row j, values descending.
	values, err := linalg.SymEigRows(gram)
	if err != nil {
		return nil, 0, fmt.Errorf("models: PPCA eigendecomposition failed: %w", err)
	}
	var cut float64
	if values[0] > 0 {
		cut = 1e-10 * math.Sqrt(values[0])
	}
	// The kept singular values s_j = √values[j] and their λ_j.
	var s, lambda []float64
	var topSum float64
	for j := 0; j < min(q, len(values)) && values[j] > 0; j++ {
		sj := math.Sqrt(values[j])
		if sj <= cut {
			break
		}
		s = append(s, sj)
		lambda = append(lambda, sj*sj/float64(n))
		topSum += lambda[j]
	}
	kept := len(s)
	// Row j of vt is v_j.
	var vt *linalg.Dense
	if d <= n {
		vt = linalg.NewDenseFrom(kept, d, gram.Data[:kept*d])
	} else {
		u := linalg.NewDenseFrom(kept, n, gram.Data[:kept*n]).T() // n x kept
		v := linalg.MatMulTransA(a, u)                            // d x kept, column j Aᵀu_j
		for j, sj := range s {
			inv := 1 / sj
			for i := 0; i < d; i++ {
				v.Set(i, j, v.At(i, j)*inv)
			}
		}
		vt = v.T()
	}
	sigmaSq := (trace - topSum) / float64(d-q)
	if sigmaSq < 1e-8 {
		sigmaSq = 1e-8
	}
	theta := make([]float64, d*q)
	for j := 0; j < kept; j++ {
		scale := math.Sqrt(math.Max(lambda[j]-sigmaSq, 0))
		vj := vt.Row(j)
		// Sign canonicalization: flip so the largest-|entry| is positive.
		maxAbs, sign := 0.0, 1.0
		for _, v := range vj {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
				if v < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		for i, v := range vj {
			theta[i*q+j] = sign * scale * v
		}
	}
	m.sigmaSqBits.Store(math.Float64bits(sigmaSq))
	m.cache.Store(nil)
	return theta, 1, nil
}

// wMatrix reshapes θ into the d x q loading matrix.
func (m *PPCA) wMatrix(theta []float64) *linalg.Dense {
	q := m.q()
	d := len(theta) / q
	return linalg.NewDenseFrom(d, q, theta)
}

// prepared returns the per-θ quantities Minv, A = C⁻¹W, σ² and log|C|,
// caching across calls with the same parameter values (every gradient row
// calls this once per example). The cache is a lock-free atomic snapshot:
// concurrent evaluations at the same θ — the pool-parallel objective and
// gradient-row loops — share one hit without serializing, and a racing
// recomputation just stores an equivalent snapshot.
func (m *PPCA) prepared(theta []float64) *ppcaCache {
	if c := m.cache.Load(); c != nil && len(c.theta) == len(theta) && c.sigmaSq == m.SigmaSq() {
		same := true
		for i, v := range theta {
			if c.theta[i] != v {
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
	sigmaSq := m.SigmaSq()
	w := m.wMatrix(theta)
	mm := linalg.SyrkT(w) // WᵀW, q x q
	mm.AddDiag(sigmaSq)
	minv, err := linalg.Inverse(mm)
	if err != nil {
		// σ² > 0 makes M positive definite; a failure here means θ has
		// non-finite entries. Fall back to a scaled identity so callers see
		// finite garbage rather than a panic deep in sampling code.
		minv = linalg.Identity(mm.Rows)
		minv.ScaleInPlace(1 / sigmaSq)
	}
	// log|C| = (d−q)·log σ² + log|M| = (d−q)·log σ² − log|Minv|, without
	// the last term when Minv's LU fails.
	logDetC := float64(w.Rows-w.Cols) * math.Log(sigmaSq)
	if lu, err := linalg.NewLU(minv); err == nil {
		logDetC -= math.Log(math.Abs(lu.Det()))
	}
	c := &ppcaCache{theta: linalg.CopyVec(theta), minv: minv, a: linalg.MatMul(w, minv), sigmaSq: sigmaSq, logDetC: logDetC}
	c.w = m.wMatrix(c.theta)
	m.cache.Store(c)
	return c
}

// ppcaStackQ is the factor count up to which ExampleLossGrad keeps a dense
// row's q-vectors on the stack.
const ppcaStackQ = 16

// ExampleLossGrad implements Spec: the per-example negative log-likelihood
// ½(d·log 2π + log|C| + xᵀC⁻¹x) and its gradient A − u·(xᵀA) flattened,
// with u = C⁻¹x = (x − W·Minv·(Wᵀx))/σ² by Woodbury. A dense row as wide as
// W takes denseLossGrad's direct loops; any other row visits its entries
// through ForEach into a d-vector u. Both make every sum in the same order.
func (m *PPCA) ExampleLossGrad(theta []float64, x dataset.Row, _ float64, gradAccum []float64) float64 {
	c := m.prepared(theta)
	d, q := c.w.Rows, c.w.Cols
	if r, ok := x.(dataset.DenseRow); ok && len(r) == d {
		var buf [3 * ppcaStackQ]float64
		s := buf[:]
		if q > ppcaStackQ {
			s = make([]float64, 3*q)
		}
		return c.denseLossGrad(r, s[:q], s[q:2*q], s[2*q:3*q], gradAccum)
	}
	// wx = Wᵀx, mw = Minv·wx, u = (x − W·mw)/σ².
	wx, mw := make([]float64, q), make([]float64, q)
	x.ForEach(func(i int, v float64) {
		linalg.Axpy(v, c.w.Row(i), wx)
	})
	c.minv.MulVec(wx, mw)
	u := make([]float64, d)
	x.AddTo(u, 1)
	for i := 0; i < d; i++ {
		u[i] -= linalg.Dot(c.w.Row(i), mw)
	}
	linalg.Scale(1/c.sigmaSq, u)
	if gradAccum != nil {
		xa := make([]float64, q) // xᵀA
		x.ForEach(func(i int, v float64) {
			linalg.Axpy(v, c.a.Row(i), xa)
		})
		for i := 0; i < d; i++ {
			dst := gradAccum[i*q : (i+1)*q]
			linalg.Axpy(1, c.a.Row(i), dst)
			linalg.Axpy(-u[i], xa, dst)
		}
	}
	xCx := 0.0
	x.ForEach(func(i int, v float64) { xCx += v * u[i] })
	return 0.5 * (float64(d)*math.Log(2*math.Pi) + c.logDetC + xCx)
}

// denseLossGrad is ExampleLossGrad for a dense row r of W's d features,
// given zeroed q-vectors wx, mw and xa: Wᵀr and xᵀA, then each u_i =
// (r_i − W_i·mw)·(1/σ²) as it is needed, every sum adding its terms in the
// ForEach path's order. That path's u_i starts from AddTo's +0 + r_i, which
// differs from r_i only in the sign of a zero u_i; neither the gradient
// (Axpy skips a zero coefficient) nor xᵀC⁻¹x (a sum from +0) can see it.
func (c *ppcaCache) denseLossGrad(r dataset.DenseRow, wx, mw, xa, gradAccum []float64) float64 {
	d, q := c.w.Rows, c.w.Cols
	for i, v := range r {
		linalg.Axpy(v, c.w.Row(i), wx)
	}
	c.minv.MulVec(wx, mw)
	if gradAccum != nil {
		for i, v := range r {
			linalg.Axpy(v, c.a.Row(i), xa)
		}
	}
	inv := 1 / c.sigmaSq
	xCx := 0.0
	for i, v := range r {
		ui := (v - linalg.Dot(c.w.Row(i), mw)) * inv
		if gradAccum != nil {
			dst := gradAccum[i*q : (i+1)*q]
			linalg.Axpy(1, c.a.Row(i), dst)
			linalg.Axpy(-ui, xa, dst)
		}
		xCx += v * ui
	}
	return 0.5 * (float64(d)*math.Log(2*math.Pi) + c.logDetC + xCx)
}

// Predict implements Spec. PPCA is unsupervised; its model difference is
// computed on parameters (Appendix C), so Predict returns the squared
// projection length of x onto the factor space — a scalar summary used only
// by diagnostics.
func (m *PPCA) Predict(theta []float64, x dataset.Row) float64 {
	w := m.wMatrix(theta)
	q := w.Cols
	wx := make([]float64, q)
	x.ForEach(func(i int, v float64) {
		linalg.Axpy(v, w.Row(i), wx)
	})
	return linalg.Dot(wx, wx)
}
