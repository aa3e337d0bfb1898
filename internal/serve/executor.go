package serve

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/tune"
)

// executor is where a queued job's work actually runs. The queue stays the
// single admission/cancellation point; the executor decides *where*
// training happens: in this process (localExecutor — the default, exactly
// the pre-cluster behavior) or fanned out to cluster workers
// (clusterExecutor, when the server runs as a coordinator).
type executor interface {
	execTrain(ctx context.Context, req TrainRequest) (TaskResult, error)
	execTune(ctx context.Context, req TuneRequest) (TaskResult, error)
}

// trainCoreOptions is the one mapping from an HTTP request's contract and
// per-request knobs to core options (shared by both executors and by
// tuneConfig, so the contract is identical wherever and however a job runs).
func trainCoreOptions(epsilon, delta float64, o TrainOptions) core.Options {
	return core.Options{
		Epsilon:           epsilon,
		Delta:             delta,
		Seed:              o.Seed,
		InitialSampleSize: o.InitialSampleSize,
		MinSampleSize:     o.MinSampleSize,
		WarmStart:         o.WarmStart,
		Optimizer:         optimize.Options{MaxIters: o.MaxIters},
	}
}

// tuneConfig maps a tune request to a search config. The queue's worker
// pool is the service's concurrency budget; a tune job's internal training
// pool must not multiply it, so the per-request worker count is clamped to
// the server's own worker setting.
func (s *Server) tuneConfig(req TuneRequest) tune.Config {
	o := req.Options
	train := trainCoreOptions(req.Epsilon, req.Delta, TrainOptions{
		Seed: o.Seed, InitialSampleSize: o.InitialSampleSize, MaxIters: o.MaxIters,
	})
	train.TestFraction = o.TestFraction
	if train.TestFraction == 0 {
		train.TestFraction = 0.15
	}
	workers := o.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	return tune.Config{
		Train:   train,
		Workers: workers,
		Halving: o.Halving,
		Rungs:   o.Rungs,
		Eta:     o.Eta,
		Seed:    o.Seed,
	}
}

// observeJobLedger distributes a finishing job's ledger totals into the
// per-family cost histograms (blinkml_job_cpu_ms / blinkml_job_alloc_bytes).
// family comes from the model spec, so the label set stays bounded.
func (s *Server) observeJobLedger(ctx context.Context, family string) {
	l := obs.LedgerFrom(ctx)
	if l == nil {
		return
	}
	snap := l.Snapshot()
	s.m.JobCPUFamily.With(family).Observe(snap.CPUMs)
	s.m.JobAllocFamily.With(family).Observe(float64(snap.BytesMaterialized))
}

// finishJob is the tail every job shares: persist the model under a
// "registry" span, charge the job's ledger to the per-family cost
// histograms, and report the model id with its phase breakdown.
func (s *Server) finishJob(ctx context.Context, kind string, m *modelio.Model, ref DatasetRef, opts core.Options) (TaskResult, error) {
	endReg := obs.StartSpan(ctx, "registry")
	id, err := s.registerModel(ctx, kind, m, ref, opts)
	endReg()
	if err != nil {
		return TaskResult{}, err
	}
	s.observeJobLedger(ctx, m.Spec.Name())
	return TaskResult{ModelID: id, Diagnostics: NewPhaseBreakdown(m.Diag)}, nil
}

// finishTrain records the train metrics and registers the model (shared
// executor tail). ref and opts feed the audit record so a replay can
// rebuild the training environment; plan is the job's cache outcome.
func (s *Server) finishTrain(ctx context.Context, m *modelio.Model, plan string, ref DatasetRef, opts core.Options, elapsed time.Duration) (TaskResult, error) {
	ms := float64(elapsed) / float64(time.Millisecond)
	s.m.TrainRuns.Add(1)
	s.m.TrainLatency.Observe(ms)
	s.m.TrainLatencyFamily.With(m.Spec.Name()).Observe(ms)
	s.m.SampleSizeSum.Add(int64(m.SampleSize))
	s.m.SampleSizeLast.Set(int64(m.SampleSize))
	out, err := s.finishJob(ctx, "train", m, ref, opts)
	out.Plan = plan
	return out, err
}

// finishTune records the search metrics, registers the winner and attaches
// the leaderboard (shared executor tail).
func (s *Server) finishTune(ctx context.Context, res *tune.Result, ref DatasetRef, opts core.Options, elapsed time.Duration) (TaskResult, error) {
	s.m.TuneRuns.Add(1)
	s.m.TuneLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	s.m.TuneCandidates.Add(int64(res.Evaluated))
	s.m.TuneCandidatesPruned.Add(int64(res.Pruned))
	out, err := s.finishJob(ctx, "tune", res.Best, ref, opts)
	if err != nil {
		return TaskResult{}, err
	}
	out.Tune, err = NewTuneReport(res)
	return out, err
}

// localExecutor runs jobs in-process — the pre-cluster path, bit for bit;
// train jobs share environments and plans through the server's cache.
type localExecutor struct{ s *Server }

func (e localExecutor) execTrain(ctx context.Context, req TrainRequest) (TaskResult, error) {
	s := e.s
	spec, err := req.Model.Spec()
	if err != nil {
		return TaskResult{}, err
	}
	ref, _, err := s.clusterDatasetRef(req.Dataset) // for its content key
	if err != nil {
		return TaskResult{}, err
	}
	data := core.Data{Key: ref.Key(), Open: func() (dataset.Source, error) { return s.buildSource(req.Dataset) }}
	specKey, err := json.Marshal(req.Model)
	if err != nil {
		return TaskResult{}, err
	}
	opts := trainCoreOptions(req.Epsilon, req.Delta, req.Options)
	start := time.Now()
	res, env, err := s.cache.Train(ctx, data, string(specKey), spec, opts)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTrain(ctx, modelio.FromResult(spec, env.Dim(), res), res.Diag.PlanOutcome(), req.Dataset, opts, time.Since(start))
}

func (e localExecutor) execTune(ctx context.Context, req TuneRequest) (TaskResult, error) {
	s := e.s
	space, err := req.Space.Space()
	if err != nil {
		return TaskResult{}, err
	}
	src, err := s.buildSource(req.Dataset)
	if err != nil {
		return TaskResult{}, err
	}
	cfg := s.tuneConfig(req)
	start := time.Now()
	res, err := tune.RunSource(ctx, space, src, cfg)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTune(ctx, res, req.Dataset, cfg.Train, time.Since(start))
}

// clusterExecutor dispatches jobs to the embedded coordinator's workers. A
// train job becomes one remote task; a tune job keeps its leaderboard logic
// here and ships every trial (each halving rung, each contract training) as
// its own task, so one search spreads across the fleet.
type clusterExecutor struct {
	s     *Server
	coord *cluster.Coordinator
}

func (e *clusterExecutor) execTrain(ctx context.Context, req TrainRequest) (TaskResult, error) {
	s := e.s
	if _, err := req.Model.Spec(); err != nil {
		return TaskResult{}, err
	}
	ref, _, err := s.clusterDatasetRef(req.Dataset)
	if err != nil {
		return TaskResult{}, err
	}
	opts := trainCoreOptions(req.Epsilon, req.Delta, req.Options)
	start := time.Now()
	id, err := e.coord.Submit(cluster.TaskSpec{Kind: cluster.KindTrain, Trace: obs.TraceID(ctx), Train: &cluster.TrainTask{
		Spec:    req.Model,
		Dataset: ref,
		Options: opts,
	}})
	if err != nil {
		return TaskResult{}, err
	}
	payload, err := e.coord.Await(ctx, id)
	if err != nil {
		return TaskResult{}, err
	}
	// The worker recorded its own pipeline spans and resource ledger; rejoin
	// both to this job, so the stage breakdown and the cost record cover
	// remote work too.
	obs.RecorderFrom(ctx).Add(payload.Spans)
	obs.LedgerFrom(ctx).Merge(payload.Ledger)
	// The worker shipped the model through modelio; registering its decoded
	// record (whose spec carries trained derived state — PPCA's σ² — exactly
	// as the local path's spec instance would) re-encodes the same bytes, so
	// the registry entry is identical to a locally trained one.
	m, err := cluster.DecodeModel(payload.Model)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTrain(ctx, m, payload.Plan, req.Dataset, opts, time.Since(start))
}

func (e *clusterExecutor) execTune(ctx context.Context, req TuneRequest) (TaskResult, error) {
	s := e.s
	space, err := req.Space.Space()
	if err != nil {
		return TaskResult{}, err
	}
	ref, rows, err := s.clusterDatasetRef(req.Dataset)
	if err != nil {
		return TaskResult{}, err
	}
	cfg := s.tuneConfig(req)
	// tuneConfig's worker clamp protects local CPU, but cluster trials run
	// on remote machines: the right bound is the fleet's capacity (what can
	// actually execute at once), not this process's queue width. An
	// explicit request still wins; a little headroom keeps the queue fed
	// as workers join mid-search.
	if req.Options.Workers > 0 {
		cfg.Workers = req.Options.Workers
	} else if fleet := e.coord.TotalCapacity(); fleet > cfg.Workers {
		cfg.Workers = fleet + 2
	}
	runner := cluster.NewTrialRunner(e.coord, ref, cfg.Train, core.PoolSize(rows, cfg.Train))
	start := time.Now()
	res, err := tune.SearchRunner(ctx, space, runner, cfg)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTune(ctx, res, req.Dataset, cfg.Train, time.Since(start))
}

// clusterDatasetRef converts a request's dataset reference to the cluster
// wire form, pinning stored datasets to their content checksums, and
// reports the dataset's row count (what sizes a search's pool) without
// materializing it.
func (s *Server) clusterDatasetRef(ref DatasetRef) (cluster.DatasetRef, int, error) {
	switch {
	case ref.ID != "":
		h, err := s.store.Get(ref.ID)
		if err != nil {
			return cluster.DatasetRef{}, 0, err
		}
		man := h.Manifest()
		return cluster.DatasetRef{
			ID:         ref.ID,
			Rows:       man.Rows,
			RowCRC32:   man.RowCRC32,
			IndexCRC32: man.IndexCRC32,
		}, man.Rows, nil
	case ref.Synthetic != nil:
		rows, _, err := ref.Synthetic.Shape()
		return cluster.DatasetRef{Synthetic: ref.Synthetic}, rows, err
	case ref.Inline != nil:
		return cluster.DatasetRef{Inline: ref.Inline}, ref.Inline.Rows(), nil
	default:
		return cluster.DatasetRef{}, 0, errors.New("serve: missing dataset")
	}
}
