package optimize

import (
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/linalg"
)

// quadratic returns the problem f(x) = ½ (x-c)ᵀ A (x-c) for SPD A.
func quadratic(a *linalg.Dense, c []float64) Problem {
	n := len(c)
	return FuncProblem{N: n, F: func(x, grad []float64) float64 {
		d := linalg.CopyVec(x)
		linalg.Axpy(-1, c, d)
		a.MulVec(d, grad)
		return 0.5 * linalg.Dot(d, grad)
	}}
}

func randomSPDProblem(seed int64, n int) (Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := linalg.MatMulTransA(m, m)
	a.AddDiag(1)
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64() * 3
	}
	return quadratic(a, c), c
}

func solvers() map[string]func(Problem, []float64, Options) (Result, error) {
	return map[string]func(Problem, []float64, Options) (Result, error){
		"BFGS":  BFGS,
		"LBFGS": LBFGS,
	}
}

func TestSolversOnQuadratic(t *testing.T) {
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				p, c := randomSPDProblem(seed, 8)
				res, err := solve(p, make([]float64, 8), Options{GradTol: 1e-9})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Converged {
					t.Fatalf("seed %d: did not converge: %s", seed, res.Status)
				}
				for i := range c {
					if math.Abs(res.X[i]-c[i]) > 1e-5 {
						t.Fatalf("seed %d: x[%d]=%v want %v", seed, i, res.X[i], c[i])
					}
				}
			}
		})
	}
}

// rosenbrock is the classic banana function: a narrow curved valley that
// breaks naive line searches.
func rosenbrock(n int) Problem {
	return FuncProblem{N: n, F: func(x, grad []float64) float64 {
		var f float64
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i < n-1; i++ {
			t1 := x[i+1] - x[i]*x[i]
			t2 := 1 - x[i]
			f += 100*t1*t1 + t2*t2
			grad[i] += -400*x[i]*t1 - 2*t2
			grad[i+1] += 200 * t1
		}
		return f
	}}
}

func TestSolversOnRosenbrock(t *testing.T) {
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			p := rosenbrock(4)
			x0 := []float64{-1.2, 1, -1.2, 1}
			res, err := solve(p, x0, Options{MaxIters: 2000, GradTol: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.X {
				if math.Abs(v-1) > 1e-4 {
					t.Fatalf("x[%d]=%v want 1 (status %q, f=%v)", i, v, res.Status, res.F)
				}
			}
		})
	}
}

func TestLBFGSMatchesBFGSOnSmallProblem(t *testing.T) {
	p, _ := randomSPDProblem(11, 12)
	x0 := make([]float64, 12)
	r1, err := BFGS(p, x0, Options{GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LBFGS(p, x0, Options{GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Abs(r1.X[i]-r2.X[i]) > 1e-5 {
			t.Fatalf("solution mismatch at %d: %v vs %v", i, r1.X[i], r2.X[i])
		}
	}
}

func TestMinimizeSelectsSolverByDimension(t *testing.T) {
	// Just verify both paths run; the dispatch is by Dim() < 100.
	small, _ := randomSPDProblem(5, 3)
	if _, err := Minimize(small, make([]float64, 3), Options{}); err != nil {
		t.Fatal(err)
	}
	big := FuncProblem{N: 150, F: func(x, grad []float64) float64 {
		var f float64
		for i := range x {
			grad[i] = 2 * (x[i] - 1)
			f += (x[i] - 1) * (x[i] - 1)
		}
		return f
	}}
	res, err := Minimize(big, make([]float64, 150), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[77]-1) > 1e-5 {
		t.Fatalf("high-dim minimize failed: %v", res.X[77])
	}
}

func TestMaxEvalsEnforced(t *testing.T) {
	calls := 0
	p := FuncProblem{N: 2, F: func(x, grad []float64) float64 {
		calls++
		grad[0], grad[1] = 2*x[0], 2*x[1]
		return x[0]*x[0] + x[1]*x[1]
	}}
	_, _ = LBFGS(p, []float64{100, 100}, Options{MaxIters: 10000, MaxEvals: 7, GradTol: 0})
	if calls > 7 {
		t.Fatalf("MaxEvals violated: %d calls", calls)
	}
}

func TestOnIterateCallback(t *testing.T) {
	p, _ := randomSPDProblem(1, 4)
	seen := 0
	_, err := BFGS(p, make([]float64, 4), Options{OnIterate: func(iter int, f, g float64) { seen++ }})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("OnIterate never called")
	}
}

func TestIterationCountReported(t *testing.T) {
	p, _ := randomSPDProblem(2, 6)
	res, err := LBFGS(p, make([]float64, 6), Options{GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters <= 0 || res.FuncEvals < res.Iters {
		t.Fatalf("bad counters: iters=%d evals=%d", res.Iters, res.FuncEvals)
	}
}

// Non-convex but smooth objective with a known global structure: solvers
// must at least reach a stationary point.
func TestStationaryPointOnNonConvex(t *testing.T) {
	p := FuncProblem{N: 1, F: func(x, grad []float64) float64 {
		grad[0] = math.Cos(x[0]) + 0.2*x[0]
		return math.Sin(x[0]) + 0.1*x[0]*x[0]
	}}
	res, err := LBFGS(p, []float64{2}, Options{GradTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.GradNorm > 1e-7 {
		t.Fatalf("not stationary: grad=%v", res.GradNorm)
	}
}

func TestStartingAtOptimum(t *testing.T) {
	p, c := randomSPDProblem(9, 5)
	res, err := BFGS(p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters != 0 {
		t.Fatalf("expected immediate convergence, got iters=%d status=%q", res.Iters, res.Status)
	}
}

// Once L-BFGS holds Memory pairs, each new pair reuses the evicted one's
// storage, so a solve's allocations do not grow with its iteration count.
func TestLBFGSAllocationsIndependentOfIterations(t *testing.T) {
	const n = 120
	p := rosenbrock(n)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = -1.2
	}
	allocs := func(iters int) float64 {
		opt := Options{MaxIters: iters, Memory: 5}
		if res, err := LBFGS(p, x0, opt); err != nil || res.Iters != iters {
			t.Fatalf("MaxIters %d: ran %d iterations (err %v); the problem must not converge early", iters, res.Iters, err)
		}
		return testing.AllocsPerRun(5, func() { LBFGS(p, x0, opt) })
	}
	if a20, a40 := allocs(20), allocs(40); a20 != a40 {
		t.Fatalf("%v allocations at 20 iterations, %v at 40: the history allocates per iteration", a20, a40)
	}
}
