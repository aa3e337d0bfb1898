package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
	"blinkml/internal/tune"
)

// TrialRunner implements tune.Runner by shipping every trial to the
// cluster: the searcher's leaderboard logic runs on the coordinator while
// each candidate training (halving rungs and contract runs alike) becomes
// one remote task. Concurrent RunTrial calls — the searcher's worker pool —
// turn into concurrent outstanding tasks, so a search fans out across as
// many cluster workers as are free.
type TrialRunner struct {
	coord   *Coordinator
	dataset DatasetRef
	options core.Options
	poolLen int
}

// NewTrialRunner builds a runner for one search: every trial references the
// same dataset and training options, so remote workers rebuild (and cache)
// one shared environment per search, just like the in-process path.
// poolLen is N for the dataset/options pair — core.PoolSize(rows, opts).
func NewTrialRunner(coord *Coordinator, ref DatasetRef, opts core.Options, poolLen int) *TrialRunner {
	return &TrialRunner{coord: coord, dataset: ref, options: opts, poolLen: poolLen}
}

// PoolLen implements tune.Runner.
func (r *TrialRunner) PoolLen() int { return r.poolLen }

// RunTrial implements tune.Runner: submit, await, decode.
func (r *TrialRunner) RunTrial(ctx context.Context, t tune.Trial) (tune.TrialResult, error) {
	sj, err := modelio.SpecToJSON(t.Spec)
	if err != nil {
		return tune.TrialResult{}, err
	}
	id, err := r.coord.Submit(TaskSpec{Kind: KindTrial, Trace: obs.TraceID(ctx), Trial: &TrialTask{
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
	payload, err := r.coord.Await(ctx, id)
	if err != nil {
		return tune.TrialResult{}, err
	}
	// Worker-side spans and ledger rejoin the submitting job's trace and
	// cost record.
	obs.RecorderFrom(ctx).Add(payload.Spans)
	obs.LedgerFrom(ctx).Merge(payload.Ledger)
	res := tune.TrialResult{
		Theta:      payload.Theta,
		Score:      DecodeScore(payload.Score),
		SampleSize: payload.SampleSize,
	}
	if t.Contract {
		m, err := DecodeModel(payload.Model)
		if err != nil {
			return tune.TrialResult{}, fmt.Errorf("cluster: trial %s: %w", id, err)
		}
		res.Theta, res.SampleSize, res.Model = m.Theta, m.SampleSize, m
	}
	return res, nil
}

// DecodeModel parses the modelio envelope a worker shipped back.
func DecodeModel(raw []byte) (*modelio.Model, error) {
	if len(raw) == 0 {
		return nil, errors.New("cluster: task result has no model")
	}
	return modelio.Decode(bytes.NewReader(raw))
}
