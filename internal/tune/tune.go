package tune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

// Config sizes a search. Train carries the per-candidate BlinkML options —
// the (ε, δ) contract every surviving candidate is trained under, plus the
// split fractions and seed the shared Env is built from.
type Config struct {
	// Train is the per-candidate contract and training knobs. Epsilon is
	// required; everything else defaults as in core.Options. The same
	// options (including the seed) are used for every candidate, so all
	// candidates draw identical sample indices — comparisons isolate the
	// hyperparameters, not the sampling noise.
	Train core.Options
	// Workers bounds concurrent candidate trainings (default
	// min(compute.Parallelism(), 8)). Kernel-level parallelism inside each
	// candidate comes from the same shared compute pool, so the two levels
	// together stay within one process-wide budget.
	Workers int
	// Halving enables successive-halving early pruning: candidates start on
	// a small shared subsample, the worst 1−1/Eta are dropped each rung, and
	// only the final survivors are trained under the full contract.
	Halving bool
	// Rungs is the number of pruning rounds before the contract rung
	// (default 3, used only with Halving).
	Rungs int
	// Eta is the halving rate: each rung keeps ceil(len/Eta) candidates and
	// grows the subsample by ×Eta (default 2, used only with Halving).
	Eta int
	// Seed drives candidate generation (random-space draws). Defaults to
	// Train.Seed.
	Seed int64
}

func (c Config) withDefaults() Config {
	c.Train = c.Train.WithDefaults()
	if c.Workers <= 0 {
		c.Workers = compute.Parallelism()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.Rungs <= 0 {
		c.Rungs = 3
	}
	if c.Eta < 2 {
		c.Eta = 2
	}
	if c.Seed == 0 {
		c.Seed = c.Train.Seed
	}
	return c
}

// Entry is one leaderboard row. Entries are ranked best-first: contract-
// trained candidates by ascending test error, then pruned candidates by how
// far they got, then failures. On the wire (entryJSON) the spec is its
// modelio form and Wall is float milliseconds.
type Entry struct {
	// Rank is the 1-based leaderboard position.
	Rank int
	// Spec is the candidate's model class specification.
	Spec models.Spec
	// Origin is "grid" or "random".
	Origin string
	// TestError is the generalization error on the evaluation set (test
	// split when present, holdout otherwise); for pruned candidates it is
	// the pruning-rung holdout error. NaN when the model class has no
	// supervised test metric (PPCA).
	TestError float64
	// EstimatedEpsilon is the (ε, δ) bound of the contract training (zero
	// for pruned or failed candidates, which never reach the contract rung).
	EstimatedEpsilon float64
	// SampleSize is the number of rows of the candidate's last training.
	SampleSize int
	// Rung counts completed successive-halving rungs (0 without Halving).
	Rung int
	// Pruned marks candidates dropped by successive halving.
	Pruned bool
	// Wall is the candidate's cumulative training time.
	Wall time.Duration
	// Err records a per-candidate training failure (the search continues).
	Err string
}

// Result is a finished search: the ranked leaderboard and the winner. It is
// its own JSON form — the "tune" object of a finished tune job's status and
// what blinkml-tune -json prints — with Elapsed in float milliseconds and
// Best left out (the winner travels as a model of its own).
type Result struct {
	// Evaluated counts candidates that entered the search.
	Evaluated int
	// Pruned counts candidates dropped by successive halving.
	Pruned int
	// PoolSize is N, the shared training pool every candidate drew from.
	PoolSize int
	// Elapsed is the wall-clock time of the whole search.
	Elapsed time.Duration
	// Leaderboard ranks every candidate, best first.
	Leaderboard []Entry
	// Best is the winning contract-trained model (Leaderboard[0]).
	Best *modelio.Model
}

// resultJSON and entryJSON are the wire layouts of Result and Entry.
type resultJSON struct {
	Evaluated   int     `json:"evaluated"`
	Pruned      int     `json:"pruned"`
	PoolSize    int     `json:"pool_size"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	Leaderboard []Entry `json:"leaderboard"`
}

type entryJSON struct {
	Rank   int              `json:"rank"`
	Spec   modelio.SpecJSON `json:"spec"`
	Origin string           `json:"origin"`
	// TestError is omitted for NaN, which JSON cannot carry.
	TestError        *float64 `json:"test_error,omitempty"`
	EstimatedEpsilon float64  `json:"estimated_epsilon,omitempty"`
	SampleSize       int      `json:"sample_size,omitempty"`
	Rung             int      `json:"rung,omitempty"`
	Pruned           bool     `json:"pruned,omitempty"`
	WallMs           float64  `json:"wall_ms"`
	Error            string   `json:"error,omitempty"`
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fromMs(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// MarshalJSON implements json.Marshaler.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Evaluated: r.Evaluated, Pruned: r.Pruned, PoolSize: r.PoolSize,
		ElapsedMs: toMs(r.Elapsed), Leaderboard: r.Leaderboard,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Result{
		Evaluated: w.Evaluated, Pruned: w.Pruned, PoolSize: w.PoolSize,
		Elapsed: fromMs(w.ElapsedMs), Leaderboard: w.Leaderboard,
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (e Entry) MarshalJSON() ([]byte, error) {
	sj, err := modelio.SpecToJSON(e.Spec)
	if err != nil {
		return nil, err
	}
	w := entryJSON{
		Rank: e.Rank, Spec: sj, Origin: e.Origin, EstimatedEpsilon: e.EstimatedEpsilon,
		SampleSize: e.SampleSize, Rung: e.Rung, Pruned: e.Pruned, WallMs: toMs(e.Wall), Error: e.Err,
	}
	if !math.IsNaN(e.TestError) {
		w.TestError = &e.TestError
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Entry) UnmarshalJSON(b []byte) error {
	var w entryJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	spec, err := w.Spec.Spec()
	if err != nil {
		return err
	}
	*e = Entry{
		Rank: w.Rank, Spec: spec, Origin: w.Origin, TestError: math.NaN(), EstimatedEpsilon: w.EstimatedEpsilon,
		SampleSize: w.SampleSize, Rung: w.Rung, Pruned: w.Pruned, Wall: fromMs(w.WallMs), Err: w.Error,
	}
	if w.TestError != nil {
		e.TestError = *w.TestError
	}
	return nil
}

// RunSource builds a shared environment from src and searches space. This
// is what the public blinkml.Tune calls (the serving layer reaches the same
// EnvRunner through its task function, on an environment its cache shares
// between searches). With a disk-backed store handle the whole search (every
// rung subsample and every contract training) materializes only the rows it
// touches, so tuning against an N-row stored dataset never loads the pool.
func RunSource(ctx context.Context, space Space, src dataset.Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	endIngest := obs.StartSpan(ctx, "ingest")
	env, err := core.NewEnvFromSource(src, cfg.Train)
	endIngest()
	if err != nil {
		return nil, err
	}
	return SearchRunner(ctx, space, NewEnvRunner(env, cfg.Train), cfg)
}

// SearchRunner evaluates space with an explicit trial Runner — the
// decomposition point for distributed search: every candidate training
// (each halving rung and each contract run) is one Trial, and the runner
// decides where it executes. All candidates share the runner's environment
// (and, under Halving, its nested SharedSample subsamples — views of one
// growing prefix), so data preparation is paid once and scores are directly
// comparable. With an EnvRunner everything trains in-process; with a task
// runner the leaderboard logic stays here while each training goes wherever
// the runner's tasks run.
func SearchRunner(ctx context.Context, space Space, runner Runner, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Train.Epsilon <= 0 || cfg.Train.Epsilon > 1 {
		return nil, fmt.Errorf("tune: Train.Epsilon must be in (0,1], got %v", cfg.Train.Epsilon)
	}
	cands, err := space.Candidates(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Halving {
		// Pruning decisions need a supervised holdout metric; without one
		// every score is NaN and "keep the best 1/Eta" degenerates to
		// keep-by-index — an arbitrary selection dressed up as a ranking.
		for _, c := range cands {
			if c.Spec.Task() == dataset.Unsupervised {
				return nil, fmt.Errorf("tune: successive halving needs a supervised test metric; %s has none — use a flat search", c.Spec.Name())
			}
		}
	}
	start := time.Now()
	states := make([]*candState, len(cands))
	for i, c := range cands {
		states[i] = &candState{cand: c, index: i, testError: math.NaN(), pruneScore: math.NaN()}
	}

	s := &searcher{runner: runner, cfg: cfg}
	if cfg.Halving {
		err = s.runHalving(ctx, states)
	} else {
		err = s.runFlat(ctx, states)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tune: search cancelled: %w", err)
	}
	return assemble(states, runner.PoolLen(), time.Since(start))
}

// candState is the mutable per-candidate record; each candidate is owned by
// at most one worker at a time, so no locking is needed.
type candState struct {
	cand  Candidate
	index int

	theta      []float64 // latest parameters (warm start across rungs)
	rung       int       // completed pruning rungs
	sampleSize int       // rows of the last training
	pruneScore float64   // holdout error at the last pruning rung
	testError  float64   // final evaluation-set error (contract rung)
	pruned     bool
	wall       time.Duration
	err        error

	model *modelio.Model // contract training outcome (survivors only)
}

type searcher struct {
	runner Runner
	cfg    Config
}

// runFlat trains every candidate under the full contract.
func (s *searcher) runFlat(ctx context.Context, states []*candState) error {
	return forEach(ctx, s.cfg.Workers, len(states), func(i int) {
		s.trainContract(ctx, states[i])
	})
}

// runHalving runs Rungs pruning rounds on growing shared subsamples, then
// trains the survivors under the contract.
func (s *searcher) runHalving(ctx context.Context, states []*candState) error {
	active := make([]*candState, len(states))
	copy(active, states)
	n := s.cfg.Train.InitialSampleSize
	for rung := 0; rung < s.cfg.Rungs && len(active) > 1; rung++ {
		if n >= s.runner.PoolLen() {
			break // the "subsample" would be the whole pool; skip straight to the contract stage
		}
		if err := forEach(ctx, s.cfg.Workers, len(active), func(i int) {
			s.trainRung(ctx, active[i], n, rung)
		}); err != nil {
			return err
		}
		active = survivors(active)
		if len(active) == 0 {
			return nil // every candidate failed; assemble reports the error
		}
		keep := (len(active) + s.cfg.Eta - 1) / s.cfg.Eta
		for _, st := range active[keep:] {
			st.pruned = true
		}
		active = active[:keep]
		n *= s.cfg.Eta
	}
	return forEach(ctx, s.cfg.Workers, len(active), func(i int) {
		s.trainContract(ctx, active[i])
	})
}

// trainRung fits one candidate on the rung's shared subsample (warm-started
// from its previous rung — legitimate because SharedSample nests) and
// scores it on the holdout for the pruning decision.
func (s *searcher) trainRung(ctx context.Context, st *candState, n, rung int) {
	if st.err != nil {
		return
	}
	t0 := time.Now()
	res, err := s.runner.RunTrial(ctx, Trial{Spec: st.cand.Spec, N: n, Rung: rung, Warm: st.theta})
	st.wall += time.Since(t0)
	if err != nil {
		st.err = fmt.Errorf("rung %d (n=%d): %w", rung, n, err)
		return
	}
	st.theta = res.Theta
	st.rung = rung + 1
	st.sampleSize = res.SampleSize
	st.pruneScore = res.Score
}

// trainContract runs the full BlinkML workflow for one candidate and scores
// it on the evaluation set.
func (s *searcher) trainContract(ctx context.Context, st *candState) {
	if st.err != nil {
		return
	}
	t0 := time.Now()
	res, err := s.runner.RunTrial(ctx, Trial{Spec: st.cand.Spec, Contract: true})
	st.wall += time.Since(t0)
	if err != nil {
		st.err = err
		return
	}
	st.model = res.Model
	st.theta = res.Theta
	st.sampleSize = res.SampleSize
	st.testError = res.Score
}

// survivors drops errored candidates and sorts the rest best-first by
// pruning score (ties by candidate index, so the order — and therefore the
// leaderboard — is deterministic).
func survivors(active []*candState) []*candState {
	out := active[:0]
	for _, st := range active {
		if st.err == nil {
			out = append(out, st)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return scoreLess(out[i].pruneScore, out[j].pruneScore, out[i].index, out[j].index)
	})
	return out
}

// scoreLess orders ascending scores with NaN last and index as tiebreak.
func scoreLess(a, b float64, ia, ib int) bool {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return ia < ib
	case an:
		return false
	case bn:
		return true
	case a != b:
		return a < b
	default:
		return ia < ib
	}
}

// assemble ranks the states into the leaderboard and extracts the winner.
func assemble(states []*candState, poolSize int, elapsed time.Duration) (*Result, error) {
	ranked := make([]*candState, len(states))
	copy(ranked, states)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		// Contract-trained first, then pruned (deepest rung first), then failed.
		ca, cb := class(a), class(b)
		if ca != cb {
			return ca < cb
		}
		switch ca {
		case 0:
			return scoreLess(a.testError, b.testError, a.index, b.index)
		case 1:
			if a.rung != b.rung {
				return a.rung > b.rung
			}
			return scoreLess(a.pruneScore, b.pruneScore, a.index, b.index)
		default:
			return a.index < b.index
		}
	})

	res := &Result{
		Leaderboard: make([]Entry, len(ranked)),
		Evaluated:   len(ranked),
		PoolSize:    poolSize,
		Elapsed:     elapsed,
	}
	var firstErr error
	for i, st := range ranked {
		e := Entry{
			Rank:       i + 1,
			Spec:       st.cand.Spec,
			Origin:     st.cand.Origin,
			TestError:  st.testError,
			SampleSize: st.sampleSize,
			Rung:       st.rung,
			Pruned:     st.pruned,
			Wall:       st.wall,
		}
		if st.pruned {
			res.Pruned++
			e.TestError = st.pruneScore
		}
		if st.model != nil {
			// The trained spec: a runner that trains a copy of the candidate
			// (any task runner) leaves derived state — PPCA's σ² — only there.
			e.Spec = st.model.Spec
			e.EstimatedEpsilon = st.model.EstimatedEpsilon
		}
		if st.err != nil {
			e.Err = st.err.Error()
			if firstErr == nil {
				firstErr = st.err
			}
		}
		res.Leaderboard[i] = e
	}
	best := ranked[0]
	if best.model == nil {
		if firstErr != nil {
			return nil, fmt.Errorf("tune: no candidate survived training: %w", firstErr)
		}
		return nil, errors.New("tune: no candidate survived training")
	}
	res.Best = best.model
	return res, nil
}

// class buckets a candidate for ranking: 0 contract-trained, 1 pruned,
// 2 failed.
func class(st *candState) int {
	switch {
	case st.model != nil:
		return 0
	case st.err != nil:
		return 2
	default:
		return 1
	}
}

// forEach runs fn(0..n-1) on a bounded worker pool, stopping the feed as
// soon as ctx is cancelled. It returns ctx.Err() when cancellation cut the
// loop short (already-started calls finish first — they observe the same
// ctx and stop between optimizer iterations).
func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Plain `go` does not inherit the job's goroutine-bound resource
			// ledger, so trial work binds the job's scope here.
			defer obs.ScopeFrom(ctx).Bind()()
			for i := range idx {
				fn(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return err
}
