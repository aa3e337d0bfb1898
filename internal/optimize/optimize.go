// Package optimize implements the unconstrained smooth minimizers BlinkML
// trains with: BFGS for low-dimensional problems (d < 100, as in the
// paper's §5.1 setup) and limited-memory L-BFGS for high-dimensional ones,
// both driven by a strong-Wolfe line search.
package optimize

import (
	"errors"
	"fmt"
	"math"

	"blinkml/internal/linalg"
)

// Problem is a smooth objective. Eval must write the gradient at x into
// grad (len == Dim) and return the objective value.
type Problem interface {
	Dim() int
	Eval(x, grad []float64) float64
}

// FuncProblem adapts a closure to the Problem interface.
type FuncProblem struct {
	N int
	F func(x, grad []float64) float64
}

// Dim implements Problem.
func (p FuncProblem) Dim() int { return p.N }

// Eval implements Problem.
func (p FuncProblem) Eval(x, grad []float64) float64 { return p.F(x, grad) }

// Options configures a solver run. The zero value is usable: it picks the
// defaults below.
type Options struct {
	MaxIters int     `json:"max_iters,omitempty"` // default 200
	GradTol  float64 `json:"grad_tol,omitempty"`  // stop when ‖grad‖∞ <= GradTol; default 1e-6
	Memory   int     `json:"memory,omitempty"`    // L-BFGS history pairs; default 10
	StepInit float64 `json:"step_init,omitempty"` // first trial step of each line search; default 1
	MaxEvals int     `json:"max_evals,omitempty"` // cap on objective evaluations; default 10*MaxIters
	FtolRel  float64 `json:"ftol_rel,omitempty"`  // stop when relative objective decrease < FtolRel; default 1e-12

	OnIterate func(iter int, f float64, gradNorm float64) `json:"-"`
	// Stop, when non-nil, is polled once per iteration; a non-nil return
	// aborts the solve immediately with that error. This is how context
	// cancellation reaches the inner loops: a killed training job stops
	// burning CPU at the next iteration boundary.
	Stop func() error `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.StepInit <= 0 {
		o.StepInit = 1
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = 10 * o.MaxIters
	}
	if o.FtolRel <= 0 {
		o.FtolRel = 1e-12
	}
	return o
}

// Result reports the outcome of a solver run.
type Result struct {
	X         []float64
	F         float64
	GradNorm  float64 // infinity norm at X
	Iters     int
	FuncEvals int
	Converged bool
	Status    string
}

// ErrLineSearch is returned when the Wolfe line search cannot make progress
// (typically a non-descent direction from numerical breakdown).
var ErrLineSearch = errors.New("optimize: line search failed to find an acceptable step")

// evalCounter wraps a Problem to count evaluations and enforce MaxEvals.
type evalCounter struct {
	p     Problem
	count int
	max   int
}

func (e *evalCounter) eval(x, grad []float64) (float64, error) {
	if e.count >= e.max {
		return math.NaN(), fmt.Errorf("optimize: exceeded %d objective evaluations", e.max)
	}
	e.count++
	return e.p.Eval(x, grad), nil
}

const (
	wolfeC1 = 1e-4
	wolfeC2 = 0.9
)

// evalStep evaluates the objective at x + t·p, leaving the point in xNew
// and its gradient in gNew, and returns the value and the directional
// derivative along p.
func evalStep(ec *evalCounter, x, p []float64, t float64, xNew, gNew []float64) (f, d float64, err error) {
	for i := range x {
		xNew[i] = x[i] + t*p[i]
	}
	if f, err = ec.eval(xNew, gNew); err != nil {
		return 0, 0, err
	}
	return f, linalg.Dot(gNew, p), nil
}

// lineSearchWolfe finds a step t along direction p from x satisfying the
// strong Wolfe conditions (Nocedal & Wright, Algorithm 3.5/3.6). It returns
// the accepted step together with the objective and gradient at the new
// point (written into fNew/gNew).
func lineSearchWolfe(ec *evalCounter, x, p []float64, f0 float64, g0 []float64, t0 float64, xNew, gNew []float64) (float64, float64, error) {
	d0 := linalg.Dot(g0, p)
	if d0 >= 0 {
		return 0, f0, ErrLineSearch
	}
	var tPrev, fPrev float64 = 0, f0
	t := t0
	const maxBracket = 30
	for iter := 0; iter < maxBracket; iter++ {
		f, d, err := evalStep(ec, x, p, t, xNew, gNew)
		if err != nil {
			return 0, f0, err
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// Step overshot into a non-finite region; shrink hard.
			t /= 10
			continue
		}
		if f > f0+wolfeC1*t*d0 || (iter > 0 && f >= fPrev) {
			return zoomWolfe(ec, x, p, f0, d0, tPrev, fPrev, t, f, xNew, gNew)
		}
		if math.Abs(d) <= -wolfeC2*d0 {
			return t, f, nil
		}
		if d >= 0 {
			return zoomWolfe(ec, x, p, f0, d0, t, f, tPrev, fPrev, xNew, gNew)
		}
		tPrev, fPrev = t, f
		t *= 2
	}
	return 0, f0, ErrLineSearch
}

// zoomWolfe refines a bracketing interval [lo, hi] until a strong-Wolfe
// point is found (Nocedal & Wright, Algorithm 3.6, bisection variant).
func zoomWolfe(ec *evalCounter, x, p []float64, f0, d0, tLo, fLo, tHi, fHi float64, xNew, gNew []float64) (float64, float64, error) {
	const maxZoom = 40
	for iter := 0; iter < maxZoom; iter++ {
		t := (tLo + tHi) / 2
		f, d, err := evalStep(ec, x, p, t, xNew, gNew)
		if err != nil {
			return 0, f0, err
		}
		if f > f0+wolfeC1*t*d0 || f >= fLo {
			tHi, fHi = t, f
		} else {
			if math.Abs(d) <= -wolfeC2*d0 {
				return t, f, nil
			}
			if d*(tHi-tLo) >= 0 {
				tHi, fHi = tLo, fLo
			}
			tLo, fLo = t, f
		}
		if math.Abs(tHi-tLo) < 1e-16*(1+math.Abs(tLo)) {
			break // interval collapsed
		}
	}
	// No strong-Wolfe point found: accept lo if it at least decreases f.
	if fLo < f0 {
		fAccept, _, err := evalStep(ec, x, p, tLo, xNew, gNew)
		if err != nil {
			return 0, f0, err
		}
		return tLo, fAccept, nil
	}
	return 0, f0, ErrLineSearch
}
