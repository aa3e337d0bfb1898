package optimize

import (
	"math"

	"blinkml/internal/linalg"
)

// curvature is the quasi-Newton model of the inverse Hessian — the one part
// of the solve on which BFGS and L-BFGS differ.
type curvature interface {
	// apply writes H·g into dir.
	apply(g, dir []float64)
	// update absorbs the accepted pair s = x_{k+1}−x_k, y = g_{k+1}−g_k
	// (sᵀy = sy > 0) and returns the buffers the driver forms the next pair
	// in; a model that keeps s and y hands back other storage.
	update(s, y []float64, sy float64) (sNext, yNext []float64)
	// reset forgets all curvature (H = I).
	reset()
}

// denseInverse is BFGS: the explicit d x d inverse-Hessian approximation.
type denseInverse struct {
	h  *linalg.Dense
	hy []float64
}

func (m *denseInverse) apply(g, dir []float64) { m.h.MulVec(g, dir) }

// update is the BFGS inverse update with ρ = 1/sᵀy,
// H ← (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ
// = H − ρ (s (Hy)ᵀ + (Hy) sᵀ) + (ρ² yᵀHy + ρ) s sᵀ.
func (m *denseInverse) update(s, y []float64, sy float64) ([]float64, []float64) {
	rho := 1 / sy
	m.h.MulVec(y, m.hy)
	yHy := linalg.Dot(y, m.hy)
	m.h.OuterAdd(-rho, s, m.hy)
	m.h.OuterAdd(-rho, m.hy, s)
	m.h.OuterAdd(rho*rho*yHy+rho, s, s)
	return s, y
}

func (m *denseInverse) reset() { m.h = linalg.Identity(m.h.Rows) }

// limitedMemory is L-BFGS: the last cap(pairs) accepted pairs, oldest first,
// applied by the two-loop recursion.
type limitedMemory struct {
	pairs []pair
	alpha []float64 // two-loop scratch
}

type pair struct {
	s, y []float64
	rho  float64 // 1/sᵀy
}

func (m *limitedMemory) apply(g, dir []float64) {
	copy(dir, g)
	for i := len(m.pairs) - 1; i >= 0; i-- {
		p := m.pairs[i]
		m.alpha[i] = p.rho * linalg.Dot(p.s, dir)
		linalg.Axpy(-m.alpha[i], p.y, dir)
	}
	if k := len(m.pairs); k > 0 {
		// Initial Hessian scaling gamma = sᵀy / yᵀy.
		last := m.pairs[k-1]
		gamma := linalg.Dot(last.s, last.y) / linalg.Dot(last.y, last.y)
		if gamma > 0 && !math.IsInf(gamma, 0) {
			linalg.Scale(gamma, dir)
		}
	}
	for i, p := range m.pairs {
		beta := p.rho * linalg.Dot(p.y, dir)
		linalg.Axpy(m.alpha[i]-beta, p.s, dir)
	}
}

// update keeps s and y. While the history has room the driver gets fresh
// buffers; once it is full the evicted (oldest) pair's storage goes back to
// the driver, so a solve allocates Memory+1 pairs however long it runs.
func (m *limitedMemory) update(s, y []float64, sy float64) ([]float64, []float64) {
	k := len(m.pairs)
	if k < cap(m.pairs) {
		m.pairs = append(m.pairs, pair{s, y, 1 / sy})
		return make([]float64, len(s)), make([]float64, len(y))
	}
	old := m.pairs[0]
	copy(m.pairs, m.pairs[1:])
	m.pairs[k-1] = pair{s, y, 1 / sy}
	return old.s, old.y
}

func (m *limitedMemory) reset() { m.pairs = m.pairs[:0] }

// LBFGS minimizes p starting from x0 with the limited-memory BFGS method
// (two-loop recursion) and a strong-Wolfe line search. x0 is not modified.
func LBFGS(p Problem, x0 []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	return quasiNewton(p, x0, opt, &limitedMemory{
		pairs: make([]pair, 0, opt.Memory),
		alpha: make([]float64, opt.Memory),
	})
}

// BFGS minimizes p with the full dense BFGS update. Suitable for
// low-dimensional problems (the paper uses BFGS when d < 100). x0 is not
// modified.
func BFGS(p Problem, x0 []float64, opt Options) (Result, error) {
	n := p.Dim()
	return quasiNewton(p, x0, opt.withDefaults(), &denseInverse{h: linalg.Identity(n), hy: make([]float64, n)})
}

// quasiNewton is the solve both methods share: direction −H·g from the
// curvature model, a strong-Wolfe line search along it, and a curvature
// update from the accepted step. opt must have its defaults applied.
func quasiNewton(p Problem, x0 []float64, opt Options, model curvature) (Result, error) {
	n := p.Dim()
	ec := &evalCounter{p: p, max: opt.MaxEvals}

	x := linalg.CopyVec(x0)
	g := make([]float64, n)
	f, err := ec.eval(x, g)
	if err != nil {
		return Result{X: x, F: f}, err
	}

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	s := make([]float64, n)
	y := make([]float64, n)

	res := Result{X: x, F: f, GradNorm: linalg.NormInf(g)}
	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.Stop != nil {
			// Hand back the best iterate so far alongside the error.
			if err := opt.Stop(); err != nil {
				res.FuncEvals = ec.count
				res.Status = "stopped: " + err.Error()
				return res, err
			}
		}
		if res.GradNorm <= opt.GradTol {
			break
		}
		model.apply(g, dir)
		linalg.Scale(-1, dir)

		stepInit := opt.StepInit
		if iter == 0 {
			// Conservative first step: unit direction.
			if nrm := linalg.Norm2(dir); nrm > 1 {
				stepInit = 1 / nrm
			}
		}
		t, fNew, lsErr := lineSearchWolfe(ec, x, dir, f, g, stepInit, xNew, gNew)
		if lsErr != nil {
			// Forget the curvature and retry along steepest descent once; if
			// that also fails, stop.
			model.reset()
			copy(dir, g)
			linalg.Scale(-1, dir)
			t, fNew, lsErr = lineSearchWolfe(ec, x, dir, f, g, 1/math.Max(1, linalg.Norm2(g)), xNew, gNew)
			if lsErr != nil {
				res.Status = "line search failed"
				break
			}
		}

		for i := 0; i < n; i++ {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := linalg.Dot(s, y)
		if sy > 1e-12*linalg.Norm2(s)*linalg.Norm2(y) {
			s, y = model.update(s, y, sy)
		}

		fPrev := f
		copy(x, xNew)
		copy(g, gNew)
		f = fNew
		res.Iters = iter + 1
		res.F = f
		res.GradNorm = linalg.NormInf(g)
		if opt.OnIterate != nil {
			opt.OnIterate(res.Iters, f, res.GradNorm)
		}
		if math.Abs(fPrev-f) <= opt.FtolRel*(math.Abs(fPrev)+1e-30) && t > 0 {
			res.Converged = true
			res.Status = "objective decrease below tolerance"
			break
		}
	}
	if res.Status == "" { // left by the gradient test or by running out of iterations
		if res.GradNorm <= opt.GradTol {
			res.Converged = true
			res.Status = "gradient tolerance reached"
		} else {
			res.Status = "iteration limit reached"
		}
	}
	res.X = x
	res.FuncEvals = ec.count
	return res, nil
}

// Minimize picks the solver the paper's setup prescribes: BFGS when the
// problem dimension is below 100, L-BFGS otherwise (§5.1).
func Minimize(p Problem, x0 []float64, opt Options) (Result, error) {
	if p.Dim() < 100 {
		return BFGS(p, x0, opt)
	}
	return LBFGS(p, x0, opt)
}
