package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// Diagnostics breaks a BlinkML run into the four phases of Figure 8a plus
// estimator internals.
type Diagnostics struct {
	InitialTrain time.Duration
	Statistics   time.Duration
	SampleSearch time.Duration
	FinalTrain   time.Duration

	InitialEpsilon float64 // ε₀, the accuracy estimate of the initial model
	InitialIters   int
	FinalIters     int
	Rank           int
	GradsCalls     int
	Probes         []Probe
	Method         Method
	// PlanReused reports that the contract was answered from a Plan an
	// earlier contract had already paid for: InitialTrain and Statistics
	// (and the accuracy draws' share of SampleSearch) were not run and read
	// 0. It describes the run, not the model, and is not persisted.
	PlanReused bool `json:"-"`
}

// PlanOutcome is PlanReused as job statuses and task results spell it.
func (d Diagnostics) PlanOutcome() string {
	if d.PlanReused {
		return "hit"
	}
	return "miss"
}

// Total returns the end-to-end BlinkML time.
func (d Diagnostics) Total() time.Duration {
	return d.InitialTrain + d.Statistics + d.SampleSearch + d.FinalTrain
}

// Result is an approximate model with its accuracy contract.
type Result struct {
	Theta      []float64
	SampleSize int
	// EstimatedEpsilon is the bound ε such that Pr[v(m_n) ≤ ε] ≥ 1−δ: the
	// initial model's estimate when it already satisfies the request, or
	// the requested ε when the final model was sized to meet it.
	EstimatedEpsilon float64
	UsedInitialModel bool
	PoolSize         int // N, what the full model would train on
	Diag             Diagnostics
}

// Env is a prepared training environment: the train/holdout/test split that
// both BlinkML and the full-model baseline must share so their predictions
// are comparable (the experiments in §5 measure v(m_n, m_N) on the same
// holdout). An Env is built from a dataset.Source — an in-memory dataset or
// a disk-backed store handle — and holds the pool as indices only: the
// holdout and test sets are materialized eagerly (they are small and the
// estimator reads them constantly) while pool rows are materialized on
// demand, exactly the rows a sample requests. That is what keeps a
// store-backed training run's memory at O(n + holdout) instead of O(N).
// An Env is logically read-only after construction, so concurrent
// NewPlan/TrainApproxContext/TrainFull calls on one Env are safe — the
// hyperparameter-search subsystem relies on this to evaluate many candidates
// over a single data preparation, and a Cache shares one Env between every
// job that splits the same data the same way.
type Env struct {
	src     dataset.Source
	meta    dataset.Meta
	poolIdx []int            // source indices forming the full model's training set (size N)
	holdout *dataset.Dataset // diff() evaluation set, never trained on
	test    *dataset.Dataset // generalization-error reporting (may be empty)
	seed    int64

	// Lazy materializations: the full pool (only the full-training baseline
	// needs it) and SharedSample's pool permutation with the longest prefix of
	// it any caller has asked for, built under mu.
	mu      sync.Mutex
	pool    *dataset.Dataset
	perm    []int
	shared  prefix
	srcSize int64 // datasetBytes of an in-memory src, measured once
}

// NewEnv splits the in-memory ds according to opt (deterministic in
// opt.Seed). Rows are shared with ds, never copied.
func NewEnv(ds *dataset.Dataset, opt Options) *Env {
	env, err := NewEnvFromSource(ds, opt)
	if err != nil {
		// In-memory materialization is Subset, which cannot fail; what is
		// left is a split fraction out of range.
		panic(fmt.Sprintf("core: NewEnv: %v", err))
	}
	return env
}

// NewEnvFromSource splits src according to opt. The split indices and every
// later sample draw consume the RNG identically to the in-memory path, so a
// store-backed Env yields byte-identical training runs to NewEnv over the
// same rows at the same seed. Only the holdout and test rows are read here.
func NewEnvFromSource(src dataset.Source, opt Options) (*Env, error) {
	opt = opt.WithDefaults()
	if err := opt.validateSplit(); err != nil {
		return nil, err
	}
	meta := src.Meta()
	rng := stat.NewRNG(opt.Seed)
	n := meta.Rows
	split := dataset.NewSplit(rng, n, cappedHoldoutFraction(n, opt), opt.TestFraction)
	holdout, err := src.Materialize(split.Holdout)
	if err != nil {
		return nil, fmt.Errorf("core: materialize holdout: %w", err)
	}
	test, err := src.Materialize(split.Test)
	if err != nil {
		return nil, fmt.Errorf("core: materialize test set: %w", err)
	}
	return &Env{
		src:     src,
		meta:    meta,
		poolIdx: split.Train,
		holdout: holdout,
		test:    test,
		seed:    opt.Seed,
	}, nil
}

// cappedHoldoutFraction applies the MaxHoldout row cap to the holdout
// fraction for an n-row dataset (opt must already have defaults applied).
func cappedHoldoutFraction(n int, opt Options) float64 {
	hf := opt.HoldoutFraction
	if max := float64(opt.MaxHoldout) / float64(n); hf > max {
		hf = max
	}
	return hf
}

// PoolSize returns N — the training-pool size an Env built over an n-row
// source with these options would have — from the row count alone. A
// scheduler dispatching work to remote environments uses it to know the
// pool size without materializing a single row; it is exact: the same
// arithmetic NewEnvFromSource's split uses.
func PoolSize(rows int, opt Options) int {
	opt = opt.WithDefaults()
	h, t := dataset.SplitSizes(rows, cappedHoldoutFraction(rows, opt), opt.TestFraction)
	return rows - h - t
}

// PoolLen returns N, the number of rows the full model would train on. It
// never touches the source's rows.
func (e *Env) PoolLen() int { return len(e.poolIdx) }

// Dim returns the source's feature dimension.
func (e *Env) Dim() int { return e.meta.Dim }

// Holdout returns the materialized holdout set (never trained on; what
// diff() evaluates).
func (e *Env) Holdout() *dataset.Dataset { return e.holdout }

// Test returns the materialized test set (may be empty).
func (e *Env) Test() *dataset.Dataset { return e.test }

// materialize fetches the pool rows at the given pool-relative indices.
func (e *Env) materialize(rel []int) (*dataset.Dataset, error) {
	abs := make([]int, len(rel))
	for i, r := range rel {
		abs[i] = e.poolIdx[r]
	}
	ds, err := e.src.Materialize(abs)
	if err != nil {
		return nil, fmt.Errorf("core: materialize sample: %w", err)
	}
	return ds, nil
}

// prefix is the longest run of rows materialized so far along one fixed
// order of an environment's pool: what lets nested samples (a plan's final
// draws, a search's halving rungs) pay for each row once. Its owner
// serializes take calls.
type prefix struct{ rows *dataset.Dataset }

// take returns the first n rows of order (pool-relative indices, final up to
// n), reading only the rows beyond those already held. The result is a
// capacity-capped view that callers must not modify: a later, longer take
// appends past every view handed out or moves to a new backing array, so a
// view stays readable while the prefix grows.
func (p *prefix) take(e *Env, order []int, n int) (*dataset.Dataset, error) {
	have := 0
	if p.rows != nil {
		have = p.rows.Len()
	}
	if have < n {
		ext, err := e.materialize(order[have:n])
		if err != nil {
			return nil, err
		}
		if p.rows == nil {
			p.rows = ext
		} else {
			p.rows.X = append(p.rows.X, ext.X...)
			p.rows.Y = append(p.rows.Y, ext.Y...)
		}
	}
	view := *p.rows
	view.X = view.X[:n:n]
	if view.Y != nil {
		view.Y = view.Y[:n:n]
	}
	return &view, nil
}

// datasetBytes is the decoded footprint of ds (nil counts nothing): 8 bytes
// per dense slot, 12 per sparse entry, 8 per label.
func datasetBytes(ds *dataset.Dataset) int64 {
	if ds == nil {
		return 0
	}
	b := int64(len(ds.Y)) * 8
	for _, r := range ds.X {
		if _, sparse := r.(*dataset.SparseRow); sparse {
			b += int64(r.NNZ()) * 12
		} else {
			b += int64(r.NNZ()) * 8
		}
	}
	return b
}

// residentBytes is what the environment keeps alive: the split, an
// in-memory source itself, the pool if Pool built it and SharedSample's prefix.
// Subsets of an in-memory source share its rows and are counted as if they
// did not, which errs on the side of the budget.
func (e *Env) residentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.src.(*dataset.Dataset); ok && e.srcSize == 0 {
		e.srcSize = datasetBytes(ds)
	}
	return e.srcSize + int64(len(e.poolIdx)+len(e.perm))*8 + datasetBytes(e.holdout) + datasetBytes(e.test) +
		datasetBytes(e.pool) + datasetBytes(e.shared.rows)
}

// Pool materializes (and memoizes) the entire training pool. The BlinkML
// path never calls it — only full-model baselines do, and on a disk-backed
// source with a row budget it fails rather than silently loading N rows.
func (e *Env) Pool() (*dataset.Dataset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pool == nil {
		pool, err := e.materialize(identity(len(e.poolIdx)))
		if err != nil {
			return nil, err
		}
		e.pool = pool
	}
	return e.pool, nil
}

// identity returns the indices 0..n-1 in order.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Sample draws n pool rows uniformly without replacement using rng and
// materializes exactly those rows (the baseline strategies and experiments
// drive this directly with their own RNGs).
func (e *Env) Sample(rng *stat.RNG, n int) (*dataset.Dataset, error) {
	return e.materialize(dataset.SampleWithoutReplacement(rng, e.PoolLen(), n))
}

// SharedSample returns the subset formed by the first n rows of a fixed,
// seed-deterministic permutation of the pool (n is clamped to the pool
// size). Successive calls share one permutation and one growing prefix of
// it, so samples are nested — SharedSample(m) is a prefix of SharedSample(n)
// for m ≤ n — and each pool row is materialized at most once however many
// sizes are asked for. This is the reuse hook of successive-halving
// hyperparameter search, which trains many models on increasing subsamples
// outside any (ε, δ) contract: candidates probing the same size share one
// subset, and a candidate promoted to a larger rung trains on a strict
// superset of the rows it has already seen, which makes warm starts honest.
// (Contracts reuse samples through a Plan, whose final draws grow the same
// way along their own order.) On a store-backed Env a rung reads only the
// rows beyond the previous one off disk. The result is a view callers must
// not modify. Safe for concurrent use.
func (e *Env) SharedSample(n int) (*dataset.Dataset, error) {
	if n >= e.PoolLen() {
		return e.Pool()
	}
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.perm == nil {
		e.perm = stat.NewRNG(e.seed + 0x5A3D).Perm(e.PoolLen())
	}
	return e.shared.take(e, e.perm, n)
}

// TrainSourceContext runs the full BlinkML workflow (§2.3) against any
// dataset.Source — an in-memory *dataset.Dataset or a disk-backed store
// handle: split, train the initial model m₀ on n₀ rows, estimate its
// accuracy, and — only if the estimate misses the requested ε — size and
// train one final model. At most two approximate models are ever trained.
// With a store handle the coordinator materializes only the rows it samples
// plus the holdout, so an (ε, δ) contract against an N-row dataset costs
// O(n) memory, not O(N): the paper's headline economics, preserved end to
// end. The coordinator checks ctx at every phase boundary and the
// optimizers poll it between iterations, so a cancelled training job stops
// burning CPU promptly and returns ctx.Err() (wrapped).
func TrainSourceContext(ctx context.Context, spec models.Spec, src dataset.Source, opt Options) (*Result, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	endIngest := obs.StartSpan(ctx, "ingest")
	env, err := NewEnvFromSource(src, opt)
	endIngest()
	if err != nil {
		return nil, err
	}
	return env.TrainApproxContext(ctx, spec, opt)
}

// TrainApproxContext runs the BlinkML coordinator inside a prepared
// environment, with the cancellation behavior of TrainSourceContext: a Plan
// built and asked for one contract.
func (e *Env) TrainApproxContext(ctx context.Context, spec models.Spec, opt Options) (*Result, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	p, err := NewPlan(ctx, e, spec, opt)
	if err != nil {
		return nil, err
	}
	return p.Contract(ctx, spec, opt)
}

// WithCancel chains ctx into the optimizer's per-iteration Stop poll,
// preserving any Stop the caller already installed. The coordinator applies
// it automatically; callers driving models.Train directly under a context
// (the tune subsystem's pruning rungs) apply it themselves.
func WithCancel(ctx context.Context, opt optimize.Options) optimize.Options {
	if ctx == nil || ctx.Done() == nil {
		return opt // context.Background(): nothing to poll
	}
	prev := opt.Stop
	opt.Stop = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	return opt
}

// FullResult is a conventionally trained full model, for baselines.
type FullResult struct {
	Theta []float64
	Iters int
	Time  time.Duration
}

// TrainFull trains spec on the entire pool — the "traditional ML library"
// path of Figure 1 that BlinkML is compared against. This is the one path
// that materializes all N pool rows.
func (e *Env) TrainFull(spec models.Spec, optim optimize.Options) (*FullResult, error) {
	pool, err := e.Pool()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := models.Train(spec, pool, nil, optim)
	if err != nil {
		return nil, fmt.Errorf("core: full training failed: %w", err)
	}
	return &FullResult{Theta: res.Theta, Iters: res.Iters, Time: time.Since(start)}, nil
}

// TrainOnSample trains spec on a fresh uniform sample of size n from the
// pool (used by the baseline strategies of §5.4).
func (e *Env) TrainOnSample(spec models.Spec, n int, seed int64, optim optimize.Options) (*FullResult, error) {
	if n > e.PoolLen() {
		n = e.PoolLen()
	}
	if n <= 0 {
		return nil, errors.New("core: sample size must be positive")
	}
	sample, err := e.Sample(stat.NewRNG(seed), n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := models.Train(spec, sample, nil, optim)
	if err != nil {
		return nil, err
	}
	return &FullResult{Theta: res.Theta, Iters: res.Iters, Time: time.Since(start)}, nil
}
