package optimize

import (
	"math"

	"blinkml/internal/linalg"
)

// LBFGS minimizes p starting from x0 with the limited-memory BFGS method
// (two-loop recursion) and a strong-Wolfe line search. x0 is not modified.
func LBFGS(p Problem, x0 []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := p.Dim()
	ec := &evalCounter{p: p, max: opt.MaxEvals}

	x := linalg.CopyVec(x0)
	g := make([]float64, n)
	f, err := ec.eval(x, g)
	if err != nil {
		return Result{X: x, F: f}, err
	}

	// History ring buffers for s_k = x_{k+1}-x_k and y_k = g_{k+1}-g_k.
	m := opt.Memory
	sHist := make([][]float64, 0, m)
	yHist := make([][]float64, 0, m)
	rhoHist := make([]float64, 0, m)

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	alpha := make([]float64, m)

	res := Result{X: x, F: f, GradNorm: linalg.NormInf(g)}
	for iter := 0; iter < opt.MaxIters; iter++ {
		if err := checkStop(opt, &res, ec); err != nil {
			return res, err
		}
		if res.GradNorm <= opt.GradTol {
			res.Converged = true
			res.Status = "gradient tolerance reached"
			break
		}

		// Two-loop recursion: dir = -H_k * g.
		copy(dir, g)
		k := len(sHist)
		for i := k - 1; i >= 0; i-- {
			alpha[i] = rhoHist[i] * linalg.Dot(sHist[i], dir)
			linalg.Axpy(-alpha[i], yHist[i], dir)
		}
		if k > 0 {
			// Initial Hessian scaling gamma = sᵀy / yᵀy.
			last := k - 1
			gamma := linalg.Dot(sHist[last], yHist[last]) / linalg.Dot(yHist[last], yHist[last])
			if gamma > 0 && !math.IsInf(gamma, 0) {
				linalg.Scale(gamma, dir)
			}
		}
		for i := 0; i < k; i++ {
			beta := rhoHist[i] * linalg.Dot(yHist[i], dir)
			linalg.Axpy(alpha[i]-beta, sHist[i], dir)
		}
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
			// Restart with steepest descent once; if that also fails, stop.
			copy(dir, g)
			linalg.Scale(-1, dir)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
			t, fNew, lsErr = lineSearchWolfe(ec, x, dir, f, g, 1/math.Max(1, linalg.Norm2(g)), xNew, gNew)
			if lsErr != nil {
				res.Status = "line search failed"
				break
			}
		}

		s := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := linalg.Dot(s, y)
		if sy > 1e-12*linalg.Norm2(s)*linalg.Norm2(y) {
			if len(sHist) == m {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
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
	if res.Status == "" {
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

// BFGS minimizes p with the full dense BFGS update. Suitable for
// low-dimensional problems (the paper uses BFGS when d < 100). x0 is not
// modified.
func BFGS(p Problem, x0 []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := p.Dim()
	ec := &evalCounter{p: p, max: opt.MaxEvals}

	x := linalg.CopyVec(x0)
	g := make([]float64, n)
	f, err := ec.eval(x, g)
	if err != nil {
		return Result{X: x, F: f}, err
	}

	hInv := linalg.Identity(n) // inverse Hessian approximation
	dir := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	s := make([]float64, n)
	y := make([]float64, n)
	hy := make([]float64, n)

	res := Result{X: x, F: f, GradNorm: linalg.NormInf(g)}
	for iter := 0; iter < opt.MaxIters; iter++ {
		if err := checkStop(opt, &res, ec); err != nil {
			return res, err
		}
		if res.GradNorm <= opt.GradTol {
			res.Converged = true
			res.Status = "gradient tolerance reached"
			break
		}
		hInv.MulVec(g, dir)
		linalg.Scale(-1, dir)

		stepInit := opt.StepInit
		if iter == 0 {
			if nrm := linalg.Norm2(dir); nrm > 1 {
				stepInit = 1 / nrm
			}
		}
		t, fNew, lsErr := lineSearchWolfe(ec, x, dir, f, g, stepInit, xNew, gNew)
		if lsErr != nil {
			// Reset curvature and retry along steepest descent.
			hInv = linalg.Identity(n)
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
			// BFGS inverse update:
			// H ← (I - ρ s yᵀ) H (I - ρ y sᵀ) + ρ s sᵀ, ρ = 1/sᵀy.
			rho := 1 / sy
			hInv.MulVec(y, hy)
			yHy := linalg.Dot(y, hy)
			// H ← H - ρ (s (Hy)ᵀ + (Hy) sᵀ) + ρ² yᵀHy s sᵀ + ρ s sᵀ
			hInv.OuterAdd(-rho, s, hy)
			hInv.OuterAdd(-rho, hy, s)
			hInv.OuterAdd(rho*rho*yHy+rho, s, s)
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
	if res.Status == "" {
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

// checkStop polls opt.Stop and, on a non-nil error, finalizes res so the
// caller can return the best iterate found so far alongside the error.
func checkStop(opt Options, res *Result, ec *evalCounter) error {
	if opt.Stop == nil {
		return nil
	}
	err := opt.Stop()
	if err != nil {
		res.FuncEvals = ec.count
		res.Status = "stopped: " + err.Error()
	}
	return err
}

// Minimize picks the solver the paper's setup prescribes: BFGS when the
// problem dimension is below 100, L-BFGS otherwise (§5.1).
func Minimize(p Problem, x0 []float64, opt Options) (Result, error) {
	if p.Dim() < 100 {
		return BFGS(p, x0, opt)
	}
	return LBFGS(p, x0, opt)
}
