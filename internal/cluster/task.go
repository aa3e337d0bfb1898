package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"

	"blinkml/internal/audit"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/store"
	"blinkml/internal/tune"
)

// RunFunc executes one task and returns its payload. Where a task runs is
// which RunFunc its submitter holds: (*TaskRunner).Run executes it in this
// process, charging the spans and ledger in ctx directly; (*Coordinator).Run
// ships it to whichever worker leases it — where the same TaskRunner.Run
// executes it — and rejoins the worker's spans and ledger to ctx.
type RunFunc func(ctx context.Context, spec TaskSpec) (*TaskResultPayload, error)

// TaskRunner is the task function: a pure function of the payload, given the
// dataset bytes a reference names. blinkml-serve without -cluster and every
// blinkml-worker each own one, over their own cache of environments and plans
// and their own way of resolving a stored dataset id.
type TaskRunner struct {
	cache  *core.Cache
	stored func(ctx context.Context, ref DatasetRef) (*store.Handle, error)
}

// NewTaskRunner returns a runner sharing prepared work through cache. stored
// resolves a reference that names a stored dataset by id (the server's own
// store, or a worker's bundle cache); synthetic and inline references need
// nothing but themselves.
func NewTaskRunner(cache *core.Cache, stored func(ctx context.Context, ref DatasetRef) (*store.Handle, error)) *TaskRunner {
	return &TaskRunner{cache: cache, stored: stored}
}

// PanicError is a panic under a task, or under the job around it, contained
// at the boundary it crossed: the work fails with this error and the process,
// its queue and every other tenant's job carry on. Error is one line; the
// stack rides along for the log line and the flight record.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Detail is Error plus the stack of the panicking goroutine.
func (e *PanicError) Detail() string { return e.Error() + "\n" + string(e.Stack) }

// LogValue implements slog.LogValuer, so a log line given the error gets the
// stack too.
func (e *PanicError) LogValue() slog.Value { return slog.StringValue(e.Detail()) }

// RecoverPanic, deferred, turns a panic of the deferring function into a
// *PanicError stored in *err.
func RecoverPanic(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// Run executes spec here. It is a RunFunc, and admits what Submit admits.
// Every train, trial and replay, in-process or on a worker, crosses it, so it
// is where a panic anywhere under a task is contained.
func (r *TaskRunner) Run(ctx context.Context, spec TaskSpec) (_ *TaskResultPayload, err error) {
	defer RecoverPanic(&err)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindTrain:
		return r.runTrain(ctx, spec.Train)
	case KindTrial:
		return r.runTrial(ctx, spec.Trial)
	default: // KindAudit: Validate admits nothing else
		return r.runAudit(ctx, spec.Audit)
	}
}

// runAudit replays one guarantee: rebuild the recorded environment, train
// the full-data model, and measure the realized difference against the
// shipped approximate parameters. The fingerprint of the full model's bits
// rides back as the determinism witness.
func (r *TaskRunner) runAudit(ctx context.Context, t *AuditTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	src, err := t.Dataset.Open(ctx, r.stored)
	if err != nil {
		return nil, err
	}
	rep, err := core.ReplayGuarantee(ctx, src, spec, t.Theta, t.Bound, t.Options)
	if err != nil {
		return nil, err
	}
	out := audit.NewReplayOutcome(rep)
	return &TaskResultPayload{ReplayOutcome: &out}, nil
}

// runTrain executes a full BlinkML training run and returns the model in
// the modelio envelope.
func (r *TaskRunner) runTrain(ctx context.Context, t *TrainTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	specKey, err := json.Marshal(t.Spec)
	if err != nil {
		return nil, err
	}
	res, env, err := r.cache.Train(ctx, r.data(ctx, t.Dataset), string(specKey), spec, t.Options)
	if err != nil {
		return nil, err
	}
	model, err := encodeModel(modelio.FromResult(spec, env.Dim(), res))
	if err != nil {
		return nil, err
	}
	return &TaskResultPayload{Model: model, SampleSize: res.SampleSize, Plan: res.Diag.PlanOutcome()}, nil
}

// runTrial executes one search trial in the shared environment of its
// (dataset, options) pair — the same one wherever it is rebuilt, by split
// determinism.
func (r *TaskRunner) runTrial(ctx context.Context, t *TrialTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	env, err := r.envFor(ctx, t.Dataset, t.Options)
	if err != nil {
		return nil, err
	}
	res, err := tune.NewEnvRunner(env, t.Options).RunTrial(ctx, tune.Trial{
		Spec:     spec,
		Contract: t.Contract,
		N:        t.N,
		Rung:     t.Rung,
		Warm:     t.Warm,
	})
	if err != nil {
		return nil, err
	}
	out := &TaskResultPayload{
		Theta:      res.Theta,
		Score:      encodeScore(res.Score),
		SampleSize: res.SampleSize,
	}
	if res.Model != nil {
		if out.Model, err = encodeModel(res.Model); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// envFor returns the shared environment for (dataset, the options' split
// and seed), so a search of many trials — and any contract on the same data —
// pays data preparation once.
func (r *TaskRunner) envFor(ctx context.Context, ref DatasetRef, opts core.Options) (*core.Env, error) {
	return r.cache.Env(ctx, r.data(ctx, ref), opts)
}

// data names ref to the cache: its content key, resolved through Open.
func (r *TaskRunner) data(ctx context.Context, ref DatasetRef) core.Data {
	return core.Data{Key: ref.Key(), Open: func() (dataset.Source, error) { return ref.Open(ctx, r.stored) }}
}

// Open resolves the reference to its rows: a synthetic workload regenerates
// here, inline rows come from the payload, and an id goes to stored — a
// server's own store, a worker's bundle cache, or StoreAt for a one-shot CLI.
func (r *DatasetRef) Open(ctx context.Context, stored func(context.Context, DatasetRef) (*store.Handle, error)) (dataset.Source, error) {
	switch {
	case r.Synthetic != nil:
		return r.Synthetic.Build()
	case r.Inline != nil:
		return r.Inline.Build()
	case r.ID != "":
		return stored(ctx, *r)
	default:
		return nil, errors.New("cluster: task has no dataset")
	}
}

// StoreAt resolves stored ids by opening the dataset store in dir: what the
// blinkml and blinkml-tune CLIs' -store/-dataset flags mean.
func StoreAt(dir string) func(context.Context, DatasetRef) (*store.Handle, error) {
	return func(_ context.Context, ref DatasetRef) (*store.Handle, error) {
		if dir == "" {
			return nil, errors.New("cluster: a dataset id needs the dataset store directory (-store)")
		}
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		return st.Get(ref.ID)
	}
}

// encodeScore maps a trial score to the wire (nil encodes NaN, which JSON
// cannot carry).
func encodeScore(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// DecodeScore is the inverse of encodeScore.
func DecodeScore(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// encodeModel serializes a trained model as a modelio envelope.
func encodeModel(m *modelio.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := modelio.Encode(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeModel parses the modelio envelope a task shipped back.
func DecodeModel(raw []byte) (*modelio.Model, error) {
	if len(raw) == 0 {
		return nil, errors.New("cluster: task result has no model")
	}
	return modelio.Decode(bytes.NewReader(raw))
}
