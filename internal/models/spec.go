// Package models implements BlinkML's model class specifications (MCS,
// paper §2.2): linear regression, logistic regression, the max-entropy
// (softmax) classifier, Poisson regression, and PPCA. Each model exposes
// the two primitives the BlinkML core needs — per-example gradients
// ("grads", the one method ExampleLossGrad, of which every gradient row is
// made) and a prediction-difference metric ("diff") — plus a training
// objective for the optimizers.
//
// Scaling convention (paper §2.2, Equations 2–3): the training objective is
//
//	f_n(θ) = (1/n) Σᵢ ℓᵢ(θ) + (β/2)‖θ‖², ℓᵢ = −log Pr(xᵢ,yᵢ;θ)
//
// so per-example gradients qᵢ = ∇ℓᵢ exclude the regularizer, exactly as
// Equation (3) of the paper separates q and r.
package models

import (
	"errors"
	"fmt"
	"math"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/optimize"
)

// Spec is a model class specification. Implementations must be stateless
// value types: all model state lives in the parameter vector θ. A spec
// answers the paper's "grads" with one method, ExampleLossGrad.
type Spec interface {
	// Name identifies the model class (e.g. "logistic").
	Name() string
	// Task reports the label semantics the model expects.
	Task() dataset.Task
	// ParamDim returns the flattened parameter dimension for a dataset.
	ParamDim(ds *dataset.Dataset) int
	// Beta returns the L2 regularization coefficient β (r(θ) = βθ).
	Beta() float64
	// ExampleLossGrad returns ℓᵢ(θ) for one example and, when gradAccum is
	// non-nil, adds qᵢ(θ) into it (without zeroing it first). A gradient
	// row is ExampleLossGrad into zeros (GradRow).
	ExampleLossGrad(theta []float64, x dataset.Row, y float64, gradAccum []float64) float64
	// Predict returns the model's prediction for x: a class index for
	// classification tasks, a real value for regression.
	Predict(theta []float64, x dataset.Row) float64
}

// New builds the model class called name — the one place a name becomes a
// spec, for wire requests, random search spaces and command-line flags
// alike. reg is the L2 coefficient β of the four GLM classes, classes the
// max-entropy class count (0 = the dataset's, at most dataset.MaxClasses)
// and factors PPCA's q (0 = the paper's 10); each class ignores what it does
// not use. obs.ModelFamilies must list exactly the names accepted here.
func New(name string, reg float64, classes, factors int) (Spec, error) {
	switch name {
	case "linear":
		return LinearRegression{Reg: reg}, nil
	case "logistic":
		return LogisticRegression{Reg: reg}, nil
	case "maxent":
		if classes > dataset.MaxClasses {
			return nil, fmt.Errorf("models: maxent with %d classes (at most %d)", classes, dataset.MaxClasses)
		}
		return MaxEntropy{Reg: reg, Classes: classes}, nil
	case "poisson":
		return PoissonRegression{Reg: reg}, nil
	case "ppca":
		return NewPPCA(factors), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want linear|logistic|maxent|poisson|ppca)", name)
	}
}

// Hessianer is implemented by models with a closed-form Hessian of the
// objective (the ClosedForm statistics method, paper §3.4 Method 1).
type Hessianer interface {
	// Hessian returns H(θ) = ∇²f_n(θ), including the βI regularizer term,
	// as a fresh matrix: the statistics phase consumes it, solving for
	// H⁻¹JH⁻¹ and building the factor in its storage.
	Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense
}

// CustomTrainer is implemented by models whose MLE is computed directly
// rather than by a generic convex solver (PPCA's closed form).
type CustomTrainer interface {
	TrainCustom(ds *dataset.Dataset) (theta []float64, iters int, err error)
}

// ErrIncompatibleTask is returned when a model is trained on a dataset
// whose task does not match the model class.
var ErrIncompatibleTask = errors.New("models: dataset task does not match model class")

// ErrNonFiniteObjective is returned by Train when the objective at the
// parameters the solver stopped at is NaN or ±Inf — a non-finite feature
// value in the training rows, or a diverged solve — so no model is built
// from them.
var ErrNonFiniteObjective = errors.New("models: training objective is not finite")

// evalGrain is the minimum number of examples per parallel chunk in
// objective evaluation; below 2·evalGrain the whole loop stays serial, so
// small problems never pay pool-dispatch overhead.
const evalGrain = 1024

// objective adapts a Spec and a dataset to optimize.Problem, evaluating
// f_n(θ) = (1/n)Σ ℓᵢ + (β/2)‖θ‖² and its gradient.
type objective struct {
	spec Spec
	ds   *dataset.Dataset
	dim  int
}

// Objective returns the training problem for spec on ds.
func Objective(spec Spec, ds *dataset.Dataset) optimize.Problem {
	return &objective{spec: spec, ds: ds, dim: spec.ParamDim(ds)}
}

// Dim implements optimize.Problem.
func (o *objective) Dim() int { return o.dim }

// Eval implements optimize.Problem. Large example sets are accumulated in
// one fused pass per chunk on the shared compute pool — each chunk
// gathers loss and gradient into its own scratch buffer, and the partials
// merge in a fixed tree order, so the result is bit-identical across runs
// at a fixed parallelism degree (and exactly the serial accumulation at
// degree 1, where grad itself is the single chunk's scratch). Inside a chunk
// a GLM's linear predictors come from the row-block kernel, and a
// max-entropy model's logits from its Weights, prepared once per call and
// shared by the chunks; the loss and gradient terms are still added row by
// row, so the sums do not move.
func (o *objective) Eval(x, grad []float64) float64 {
	n := o.ds.Len()
	linalg.Fill(grad, 0)
	chunks := compute.Chunks(n, evalGrain)
	lossParts := make([]float64, chunks)
	gradParts := make([][]float64, chunks)
	w := pooledWeights(o.spec, x, o.ds.Dim)
	compute.ForChunksN(n, chunks, func(chunk, lo, hi int) {
		g := grad
		if chunk > 0 {
			g = make([]float64, o.dim)
		}
		var loss float64
		if m, ok := o.spec.(glm); ok {
			loss = glmLossGrad(m, x, o.ds, lo, hi, g)
		} else if w != nil {
			loss = w.lossGrad(o.ds, lo, hi, g)
		} else {
			for i := lo; i < hi; i++ {
				loss += o.spec.ExampleLossGrad(x, o.ds.X[i], label(o.ds, i), g)
			}
		}
		lossParts[chunk] = loss
		gradParts[chunk] = g
	})
	if w != nil {
		w.release()
	}
	loss := compute.ReduceFloats(lossParts)
	compute.ReduceVecs(gradParts) // folds into gradParts[0] == grad
	inv := 1 / float64(n)
	loss *= inv
	linalg.Scale(inv, grad)
	// Regularizer (β/2)‖θ‖², gradient βθ.
	beta := o.spec.Beta()
	if beta > 0 {
		loss += 0.5 * beta * linalg.Dot(x, x)
		linalg.Axpy(beta, x, grad)
	}
	return loss
}

func label(ds *dataset.Dataset, i int) float64 {
	if ds.Task == dataset.Unsupervised {
		return 0
	}
	return ds.Y[i]
}

// TrainResult is the outcome of fitting a model.
type TrainResult struct {
	Theta     []float64
	Loss      float64
	Iters     int
	Converged bool
}

// Train fits spec on ds to convergence: models with a closed-form MLE use
// it; everything else runs BFGS/L-BFGS per the paper's §5.1 setup. theta0
// may be nil for a zero start (a warm start is passed through unchanged).
func Train(spec Spec, ds *dataset.Dataset, theta0 []float64, opt optimize.Options) (TrainResult, error) {
	if err := checkTask(spec, ds); err != nil {
		return TrainResult{}, err
	}
	if ds.Len() == 0 {
		return TrainResult{}, errors.New("models: empty training set")
	}
	if ct, ok := spec.(CustomTrainer); ok {
		// Closed-form trainers have no iteration boundaries to poll, so
		// cancellation is only honored before they start (and again at the
		// coordinator's next phase boundary).
		if opt.Stop != nil {
			if err := opt.Stop(); err != nil {
				return TrainResult{}, err
			}
		}
		theta, iters, err := ct.TrainCustom(ds)
		if err != nil {
			return TrainResult{}, err
		}
		return TrainResult{Theta: theta, Iters: iters, Converged: true}, nil
	}
	dim := spec.ParamDim(ds)
	if theta0 == nil {
		theta0 = make([]float64, dim)
	} else if len(theta0) != dim {
		return TrainResult{}, fmt.Errorf("models: warm start has dim %d, want %d", len(theta0), dim)
	}
	res, err := optimize.Minimize(Objective(spec, ds), theta0, opt)
	if err != nil {
		return TrainResult{}, err
	}
	if !linalg.AllFinite(res.X) {
		return TrainResult{}, errors.New("models: training produced non-finite parameters")
	}
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		return TrainResult{}, fmt.Errorf("%w: %v at the returned parameters (%s)", ErrNonFiniteObjective, res.F, res.Status)
	}
	return TrainResult{Theta: res.X, Loss: res.F, Iters: res.Iters, Converged: res.Converged}, nil
}

func checkTask(spec Spec, ds *dataset.Dataset) error {
	want := spec.Task()
	if want == ds.Task {
		// A multiclass model indexes its parameter blocks by label, so one
		// sized for fewer classes than the data has labels would read past
		// them. ParamDim is what every spec, wrapped or not, answers.
		if dim := spec.ParamDim(ds); want == dataset.MultiClassification && dim < ds.Dim*ds.NumClasses {
			return fmt.Errorf("models: model %s is sized for %d classes, dataset %q has %d", spec.Name(), dim/ds.Dim, ds.Name, ds.NumClasses)
		}
		return nil
	}
	// PPCA accepts any dataset (it ignores labels).
	if want == dataset.Unsupervised {
		return nil
	}
	return fmt.Errorf("%w: model %s wants %v, dataset %q is %v", ErrIncompatibleTask, spec.Name(), want, ds.Name, ds.Task)
}

// PerExampleGradRows materializes qᵢ(θ) for every row of ds, each by
// GradRow. The rows stay sparse for a score model's sparse inputs, which
// keeps the Gram side at O(nnz) memory — the paper's O(d) claim (§3.4).
// They are one block: every row's values lie in one slab (ns·nnz(xᵢ) for a
// sparse row, len(θ) for a dense one), the sparse rows' headers in one
// slice and, with more than one score, their indices in one more. Rows are
// independent, so they are computed in parallel on the shared compute pool,
// each chunk gathering its sparse rows through its own scratch; a dense row
// is made in its own part of the slab.
func PerExampleGradRows(spec Spec, ds *dataset.Dataset, theta []float64) []dataset.Row {
	p := len(theta)
	sm, scores := spec.(ScoreModel)
	// sparse reports whether GradRow makes row i sparse, and its ns·nnz.
	sparse := func(i int) (*dataset.SparseRow, int, bool) {
		xs, ok := ds.X[i].(*dataset.SparseRow)
		if !scores || !ok {
			return nil, 0, false
		}
		return xs, sm.NumScores(p, xs.N) * len(xs.Idx), true
	}
	var nSparse, nVal, nIdx int
	for i := range ds.X {
		if xs, m, ok := sparse(i); ok {
			nSparse++
			nVal += m
			if m > len(xs.Idx) {
				nIdx += m
			}
		} else {
			nVal += p
		}
	}
	rows := make([]dataset.Row, ds.Len())
	hdr := make([]dataset.SparseRow, nSparse)
	val, idx := make([]float64, nVal), make([]int32, nIdx)
	for i := range ds.X {
		xs, m, ok := sparse(i)
		if !ok {
			rows[i], val = dataset.DenseRow(val[:p:p]), val[p:]
			continue
		}
		h := &hdr[0]
		h.Val, val = val[:m:m], val[m:]
		if m > len(xs.Idx) {
			h.Idx, idx = idx[:m:m], idx[m:]
		}
		rows[i], hdr = h, hdr[1:]
	}
	chunks := compute.Chunks(ds.Len(), 64)
	var scratch []float64 // a p-vector of zeros per chunk, for its sparse rows
	if nSparse > 0 {
		scratch = make([]float64, chunks*p)
	}
	compute.ForChunksN(ds.Len(), chunks, func(chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			switch r := rows[i].(type) {
			case dataset.DenseRow:
				GradRow(spec, ds, theta, i, r, nil)
			case *dataset.SparseRow:
				GradRow(spec, ds, theta, i, scratch[chunk*p:(chunk+1)*p], r)
			}
		}
	})
	return rows
}

// GradRow returns qᵢ(θ) for row i of ds as ExampleLossGrad added into
// scratch, len(θ) zeros. A ScoreModel's loss reaches θ only through the
// scores, so for a sparse row qᵢ lives at the row's stored indices in each
// of its NumScores class blocks: GradRow gathers those slots into sp in
// class-major order and re-zeroes them, leaving scratch all zero. The row
// keeps every stored entry, explicit zeros included, and with one score it
// shares x's indices. sp's storage is reused when it has room (so an sp
// passed again must come from the same spec), and a nil sp gets a new row.
// Any other row or spec returns scratch itself as a dense row, which the
// caller zeroes or replaces before the next call.
func GradRow(spec Spec, ds *dataset.Dataset, theta []float64, i int, scratch []float64, sp *dataset.SparseRow) dataset.Row {
	x, p := ds.X[i], len(theta)
	scratch = scratch[:p]
	spec.ExampleLossGrad(theta, x, label(ds, i), scratch)
	sm, scores := spec.(ScoreModel)
	xs, sparse := x.(*dataset.SparseRow)
	if !scores || !sparse {
		return dataset.DenseRow(scratch)
	}
	if sp == nil {
		sp = new(dataset.SparseRow)
	}
	d, nnz := xs.N, len(xs.Idx)
	ns := sm.NumScores(p, d)
	sp.N = p
	if cap(sp.Val) < ns*nnz {
		sp.Val = make([]float64, ns*nnz)
	}
	sp.Val = sp.Val[:ns*nnz]
	if ns == 1 {
		sp.Idx = xs.Idx
	} else if cap(sp.Idx) < ns*nnz {
		sp.Idx = make([]int32, ns*nnz)
	}
	sp.Idx = sp.Idx[:ns*nnz]
	for c := 0; c < ns; c++ {
		blk, val := scratch[c*d:(c+1)*d], sp.Val[c*nnz:(c+1)*nnz]
		for t, j := range xs.Idx {
			val[t], blk[j] = blk[j], 0
			if ns > 1 {
				sp.Idx[c*nnz+t] = int32(c*d) + j
			}
		}
	}
	return sp
}

// GradRowsInto writes qᵢ(θ) for rows lo..hi of ds densely into buf, row i
// at buf[(i−lo)·p : (i−lo+1)·p] with p = len(theta): each ExampleLossGrad
// added into zeros, as GradRow makes a row, in the caller's storage.
func GradRowsInto(spec Spec, ds *dataset.Dataset, theta []float64, lo, hi int, buf []float64) {
	p := len(theta)
	buf = buf[:(hi-lo)*p]
	linalg.Fill(buf, 0)
	for i := lo; i < hi; i++ {
		spec.ExampleLossGrad(theta, ds.X[i], label(ds, i), buf[(i-lo)*p:(i-lo+1)*p])
	}
}
