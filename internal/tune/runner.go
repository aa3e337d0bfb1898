package tune

import (
	"context"
	"math"

	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

// Trial is one unit of search work: either a full (ε, δ) contract training
// of a candidate, or one successive-halving rung — a cheap fit on the first
// N rows of the shared pool permutation. Trials are self-describing so a
// Runner can execute them anywhere an identical environment can be rebuilt
// (same source, same core.Options): the trial carries everything that is
// not derivable from those two.
type Trial struct {
	// Spec is the candidate's model class specification.
	Spec models.Spec
	// Contract selects the full BlinkML workflow; otherwise the trial is a
	// halving rung.
	Contract bool
	// N is the rung's shared-subsample size (rung trials only).
	N int
	// Rung is the 0-based rung index (rung trials only).
	Rung int
	// Warm is the candidate's parameter vector from its previous rung (may
	// be nil or wrongly sized; runners must ignore it then).
	Warm []float64
}

// TrialResult is a finished trial. Score is the holdout error for rung
// trials and the evaluation-set error for contract trials (NaN when the
// model class has no supervised test metric).
type TrialResult struct {
	Theta      []float64
	Score      float64
	SampleSize int
	// Model is the contract-training outcome (contract trials only).
	Model *modelio.Model
}

// Runner executes trials for a search. The searcher is agnostic to where a
// trial runs: EnvRunner trains in-process on a shared core.Env (the library
// path, bit-identical to the pre-interface searcher), while cluster's
// TrialRunner makes each trial a task that reaches an EnvRunner over the same
// environment wherever the task runs. Implementations must be safe for concurrent RunTrial calls —
// the searcher fans trials out across Config.Workers goroutines.
type Runner interface {
	// PoolLen returns N, the shared training pool size (bounds the halving
	// schedule and is reported on the leaderboard).
	PoolLen() int
	// RunTrial executes one trial under ctx.
	RunTrial(ctx context.Context, t Trial) (TrialResult, error)
}

// EnvRunner is the in-process Runner: trials train directly on a shared
// prepared environment. Rung subsamples come from Env.SharedSample, so they
// are nested (warm starts are honest) and views of one growing prefix: each
// pool row is materialized once across all rungs and candidates.
type EnvRunner struct {
	env  *core.Env
	opts core.Options
}

// NewEnvRunner wraps env with the per-candidate training options (the same
// Config.Train every trial of the search uses).
func NewEnvRunner(env *core.Env, opts core.Options) *EnvRunner {
	return &EnvRunner{env: env, opts: opts}
}

// PoolLen implements Runner.
func (r *EnvRunner) PoolLen() int { return r.env.PoolLen() }

// RunTrial implements Runner.
func (r *EnvRunner) RunTrial(ctx context.Context, t Trial) (TrialResult, error) {
	if t.Contract {
		res, err := r.env.TrainApproxContext(ctx, t.Spec, r.opts)
		if err != nil {
			return TrialResult{}, err
		}
		return TrialResult{
			Theta:      res.Theta,
			Score:      evalError(t.Spec, res.Theta, r.evalSet()),
			SampleSize: res.SampleSize,
			Model:      modelio.FromResult(t.Spec, r.env.Dim(), res),
		}, nil
	}
	endSample := obs.StartSpan(ctx, "sample")
	sample, err := r.env.SharedSample(t.N)
	endSample()
	if err != nil {
		return TrialResult{}, err
	}
	warm := t.Warm
	if dim := t.Spec.ParamDim(sample); len(warm) != dim {
		warm = nil
	}
	endOpt := obs.StartSpan(ctx, "optimize")
	res, err := models.Train(t.Spec, sample, warm, core.WithCancel(ctx, r.opts.Optimizer))
	endOpt()
	if err != nil {
		return TrialResult{}, err
	}
	return TrialResult{
		Theta:      res.Theta,
		Score:      evalError(t.Spec, res.Theta, r.pruneSet()),
		SampleSize: sample.Len(),
	}, nil
}

// evalSet is where final leaderboard scores come from: the test split when
// the environment has one, the holdout otherwise.
func (r *EnvRunner) evalSet() *dataset.Dataset {
	if r.env.Test() != nil && r.env.Test().Len() > 0 {
		return r.env.Test()
	}
	return r.env.Holdout()
}

// pruneSet is where halving decisions come from — the holdout, so the test
// set stays untouched until the final ranking.
func (r *EnvRunner) pruneSet() *dataset.Dataset {
	if r.env.Holdout() != nil && r.env.Holdout().Len() > 0 {
		return r.env.Holdout()
	}
	return r.env.Test()
}

// evalError is the candidate score: models.GeneralizationError (lower is
// better) when the model class and dataset support a supervised test
// metric, NaN otherwise (NaN ranks last).
func evalError(spec models.Spec, theta []float64, ds *dataset.Dataset) float64 {
	if ds == nil || ds.Len() == 0 || len(theta) == 0 {
		return math.NaN()
	}
	if spec.Task() == dataset.Unsupervised || ds.Task == dataset.Unsupervised {
		return math.NaN()
	}
	return models.GeneralizationError(spec, theta, ds)
}
