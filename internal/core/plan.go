package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// Plan is everything BlinkML computes before it looks at the request: the
// initial model m₀, the factor of H⁻¹JH⁻¹ at θ₀, the k holdout differences
// behind ε₀ and — built by the first contract that needs them — the
// Searcher's pre-scored parameter pairs and the final sample's draw. All of
// it depends on (environment, spec, seed, n₀, method, K, solver budget) and
// none of it on ε or δ, so one Plan answers any number of contracts on the
// same data, each for the price of its search and its final train.
//
// A Plan consumes its random stream exactly as a one-shot run does: n₀
// sample, k accuracy draws, then (first search) the Searcher's 2k draws, then
// the final sample's partial Fisher–Yates. The n-sample of that shuffle is a
// prefix of every larger one, so the plan keeps the longest materialized
// prefix and a contract reads only the rows beyond it. Every contract's
// answer — n, θ, ε̂, probes — equals the one-shot run's bit for bit, in any
// order and from any number of goroutines.
type Plan struct {
	env        *Env
	spec       models.Spec
	optim      optimize.Options // without any contract's cancellation
	n0, bigN   int
	k          int
	theta0     []float64
	noiseVar   float64     // m₀'s derived state, for specs that keep one
	factor     Factor      // nil when n₀ covers the pool: nothing to approximate
	diffs      []float64   // sorted v(m₀; θ_N,i): ε₀(δ) is a quantile of these
	build      Diagnostics // what building cost; the first contract reports the durations
	buildSpent atomic.Bool

	mu     sync.Mutex // guards the lazily built state below and rng
	rng    *stat.RNG
	search *Searcher
	perm   *dataset.Shuffle // the final sample's draw over the pool, extended as contracts ask for more
	sample prefix           // the rows of perm materialized so far
}

// noiseVariance is implemented by specs that record a quantity derived from
// the trained θ on themselves (PPCA's σ²).
type noiseVariance interface {
	SigmaSq() float64
	RestoreSigmaSq(float64)
}

// NewPlan runs phase 1 (n₀ sample, m₀) and phase 2 (statistics → factor) of
// the BlinkML workflow and draws the accuracy estimate's k holdout
// differences. Epsilon, Delta, MinSampleSize and WarmStart are not read:
// they belong to Contract. Cancelling ctx stops the initial training. Spans
// time each phase; statistics charges its dense work to ctx's ledger.
func NewPlan(ctx context.Context, e *Env, spec models.Spec, opt Options) (*Plan, error) {
	opt = opt.WithDefaults()
	bigN := e.PoolLen()
	if bigN == 0 {
		return nil, errors.New("core: empty training pool")
	}
	p := &Plan{
		env: e, spec: spec, optim: opt.Optimizer,
		n0: min(opt.InitialSampleSize, bigN), bigN: bigN, k: opt.K,
		rng:   stat.NewRNG(opt.Seed + 0x5EED),
		build: Diagnostics{Method: opt.Method},
	}

	// Phase 1: initial model m₀ on a uniform sample of size n₀.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endSample := obs.StartSpan(ctx, "sample")
	sample0, err := e.Sample(p.rng, p.n0)
	p.build.InitialTrain = endSample()
	if err != nil {
		return nil, err
	}
	endOpt := obs.StartSpan(ctx, "optimize")
	m0, err := models.Train(spec, sample0, nil, WithCancel(ctx, p.optim))
	p.build.InitialTrain += endOpt()
	if err != nil {
		return nil, fmt.Errorf("core: initial training failed: %w", err)
	}
	p.theta0 = m0.Theta
	if s, ok := spec.(noiseVariance); ok {
		p.noiseVar = s.SigmaSq()
	}
	p.build.InitialIters = m0.Iters
	if p.n0 >= bigN {
		return p, nil // the "sample" already is the full pool
	}

	// Phase 2: statistics (H, J → sampling factor) at θ₀.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endStats := obs.StartSpan(ctx, "statistics")
	stats, err := ComputeStatistics(spec, sample0, m0.Theta, opt)
	p.build.Statistics = endStats()
	if err != nil {
		return nil, fmt.Errorf("core: statistics computation failed: %w", err)
	}
	obs.LedgerFrom(ctx).ChargeKernels("statistics", stats.kernels, p.build.Statistics, stats.flops)
	p.build.Rank = stats.Rank
	p.build.GradsCalls = stats.GradsCalls
	p.factor = Inflate(stats.Factor, opt.VarianceInflation)

	// Phase 3, the part no contract shapes: the differences behind ε₀.
	endProbe := obs.StartSpan(ctx, "probe")
	p.diffs = accuracyDiffs(spec, m0.Theta, p.factor, Alpha(p.n0, bigN), e.holdout, p.k, p.rng)
	sort.Float64s(p.diffs)
	p.build.SampleSearch = endProbe()
	return p, nil
}

// Contract answers one (ε, δ) request from the plan: m₀ when ε₀(δ) ≤ ε,
// otherwise a search for the sample size and one final training. Of opt only
// Epsilon, Delta, MinSampleSize and WarmStart are read; every other field
// shaped the plan. spec is the caller's instance of the plan's model class:
// the final model trains through it, and an answer from m₀ restores m₀'s
// derived state on it, so the instance ends as a one-shot run would leave it.
// Contract is safe for concurrent use, and a cancelled call leaves the plan
// intact for the next.
func (p *Plan) Contract(ctx context.Context, spec models.Spec, opt Options) (*Result, error) {
	floor := opt.MinSampleSize // not the default: that is the caller's n₀, never above the search's answer
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{SampleSize: p.n0, UsedInitialModel: true, PoolSize: p.bigN, Diag: p.build}
	diag := &res.Diag
	if diag.PlanReused = !p.buildSpent.CompareAndSwap(false, true); diag.PlanReused {
		diag.InitialTrain, diag.Statistics, diag.SampleSearch = 0, 0, 0
	}
	fromInitial := func() (*Result, error) {
		res.Theta = linalg.CopyVec(p.theta0) // the plan outlives this result, whose caller owns Theta
		if s, ok := spec.(noiseVariance); ok {
			s.RestoreSigmaSq(p.noiseVar)
		}
		return res, nil
	}
	if p.factor == nil {
		return fromInitial()
	}

	// Phase 3: early exit if m₀ already meets ε at this δ.
	endProbe := obs.StartSpan(ctx, "probe")
	diag.InitialEpsilon = stat.ConservativeQuantile(p.diffs, opt.Delta)
	if res.EstimatedEpsilon = diag.InitialEpsilon; res.EstimatedEpsilon <= opt.Epsilon {
		diag.SampleSearch += endProbe()
		return fromInitial()
	}

	// Phase 3b: minimum sample size via two-stage sampling + binary search.
	sres := p.searchSize(opt.Epsilon, opt.Delta)
	diag.SampleSearch += endProbe()
	diag.Probes = sres.Probes
	n := min(max(sres.N, floor), p.bigN)

	// Phase 4: final model m_n on the n-prefix of the plan's draw.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endSample := obs.StartSpan(ctx, "sample")
	sampleN, err := p.finalSample(n)
	diag.FinalTrain = endSample()
	if err != nil {
		return nil, err
	}
	var warm []float64
	if opt.WarmStart {
		warm = p.theta0
	}
	endOpt := obs.StartSpan(ctx, "optimize")
	mn, err := models.Train(spec, sampleN, warm, WithCancel(ctx, p.optim))
	diag.FinalTrain += endOpt()
	if err != nil {
		return nil, fmt.Errorf("core: final training failed: %w", err)
	}
	diag.FinalIters = mn.Iters
	res.Theta, res.SampleSize, res.EstimatedEpsilon, res.UsedInitialModel = mn.Theta, n, opt.Epsilon, false
	return res, nil
}

// searchSize runs one contract's binary search on the plan's Searcher,
// building it — the stream's next 2k·rank normals, the factor applied to
// them, the results scored on the holdout — the first time any contract
// needs it.
func (p *Plan) searchSize(eps, delta float64) SampleSizeResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.search == nil {
		zs := drawNormals(p.rng, 2*p.k, p.factor.Rank())
		p.search = newSearcher(p.spec, p.theta0, p.factor, p.n0, p.bigN, p.env.holdout, zs)
		p.search.vs = make(map[int][]float64)
	}
	return p.search.search(eps, delta)
}

// finalSample returns the first n rows of the plan's one final-sample draw
// (a search has run, so the stream stands where a one-shot run draws it),
// extending the shuffle and reading only the rows beyond the longest prefix
// materialized so far. The result is a view: callers must not modify it.
func (p *Plan) finalSample(n int) (*dataset.Dataset, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perm == nil {
		p.perm = dataset.NewShuffle(p.bigN)
	}
	return p.sample.take(p.env, p.perm.Extend(p.rng, n), n)
}

// residentBytes is what the plan keeps alive beyond its environment.
func (p *Plan) residentBytes() int64 {
	b := int64(len(p.theta0)+len(p.diffs))*8 + factorBytes(p.factor)
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.search; s != nil {
		b += int64(len(s.base)) * 8
		for i := range s.w1 {
			b += int64(len(s.w1[i])+len(s.w2[i])) * 8
		}
	}
	return b + p.perm.Bytes() + datasetBytes(p.sample.rows)
}
