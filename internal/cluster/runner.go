package cluster

import (
	"context"

	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/tune"
)

// TrialRunner implements tune.Runner by making every trial a task: the
// searcher's leaderboard logic runs with the submitter while each candidate
// training (halving rungs and contract runs alike) goes through the RunFunc —
// in this process, or to the fleet, where concurrent RunTrial calls (the
// searcher's worker pool) become concurrent outstanding tasks on as many
// workers as are free.
type TrialRunner struct {
	run     RunFunc
	dataset DatasetRef
	options core.Options
	poolLen int
}

// NewTrialRunner builds a runner for one search: every trial references the
// same dataset and training options, so whoever executes them prepares (and
// caches) one shared environment per search.
// poolLen is N for the dataset/options pair — core.PoolSize(rows, opts).
func NewTrialRunner(run RunFunc, ref DatasetRef, opts core.Options, poolLen int) *TrialRunner {
	return &TrialRunner{run: run, dataset: ref, options: opts, poolLen: poolLen}
}

// PoolLen implements tune.Runner.
func (r *TrialRunner) PoolLen() int { return r.poolLen }

// RunTrial implements tune.Runner: one task, decoded.
func (r *TrialRunner) RunTrial(ctx context.Context, t tune.Trial) (tune.TrialResult, error) {
	sj, err := modelio.SpecToJSON(t.Spec)
	if err != nil {
		return tune.TrialResult{}, err
	}
	payload, err := r.run(ctx, TaskSpec{Kind: KindTrial, Trial: &TrialTask{
		Spec:     sj,
		Dataset:  r.dataset,
		Options:  r.options,
		Contract: t.Contract,
		N:        t.N,
		Rung:     t.Rung,
		Warm:     t.Warm,
	}})
	if err != nil {
		return tune.TrialResult{}, err
	}
	res := tune.TrialResult{
		Theta:      payload.Theta,
		Score:      DecodeScore(payload.Score),
		SampleSize: payload.SampleSize,
	}
	if t.Contract {
		m, err := DecodeModel(payload.Model)
		if err != nil {
			return tune.TrialResult{}, err
		}
		res.Theta, res.SampleSize, res.Model = m.Theta, m.SampleSize, m
	}
	return res, nil
}
