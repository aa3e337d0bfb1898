package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/tune"
)

// trainCoreOptions is the one mapping from an HTTP request's contract and
// per-request knobs to core options (shared by execTrain and tuneConfig, so
// the contract is identical however a job reaches it).
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
// the server's own worker setting — unless the trials run on a fleet.
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
	if s.coord != nil {
		// The clamp above protects local CPU, but cluster trials run on
		// remote machines: the right bound is the fleet's capacity (what can
		// actually execute at once), not this process's queue width. An
		// explicit request still wins; a little headroom keeps the queue fed
		// as workers join mid-search.
		if o.Workers > 0 {
			workers = o.Workers
		} else if fleet := s.coord.TotalCapacity(); fleet > workers {
			workers = fleet + 2
		}
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
	snap := obs.ScopeFrom(ctx).Ledger.Snapshot()
	if snap == nil {
		return
	}
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

// finishTrain records the train metrics and registers the model. ref and
// opts feed the audit record so a replay can rebuild the training
// environment; plan is the job's cache outcome.
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
// the leaderboard.
func (s *Server) finishTune(ctx context.Context, res *tune.Result, ref DatasetRef, opts core.Options, elapsed time.Duration) (TaskResult, error) {
	s.m.TuneRuns.Add(1)
	s.m.TuneLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	s.m.TuneCandidates.Add(int64(res.Evaluated))
	s.m.TuneCandidatesPruned.Add(int64(res.Pruned))
	out, err := s.finishJob(ctx, "tune", res.Best, ref, opts)
	out.Tune = res
	res.Best = nil // registered: the job history keeps the leaderboard, not θ
	return out, err
}

// execTrain runs a train job as one task through s.run — in this process, or
// on whichever worker leases it — and registers the model it ships back. The
// task's model travels in the modelio envelope either way; registering the
// decoded record (whose spec carries trained derived state — PPCA's σ² —
// exactly as the training instance did) re-encodes the same bytes.
func (s *Server) execTrain(ctx context.Context, req TrainRequest) (TaskResult, error) {
	opts := trainCoreOptions(req.Epsilon, req.Delta, req.Options)
	start := time.Now()
	payload, err := s.run(ctx, cluster.TaskSpec{Kind: cluster.KindTrain, Train: &cluster.TrainTask{
		Spec:    req.Model,
		Dataset: req.Dataset,
		Options: opts,
	}})
	if err != nil {
		return TaskResult{}, err
	}
	m, err := cluster.DecodeModel(payload.Model)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTrain(ctx, m, payload.Plan, req.Dataset, opts, time.Since(start))
}

// execTune keeps a tune job's leaderboard logic here and makes every trial
// (each halving rung, each contract training) its own task through s.run, so
// one search shares the cached environment with every other job on the data
// and, in cluster mode, spreads across the fleet.
func (s *Server) execTune(ctx context.Context, req TuneRequest) (TaskResult, error) {
	space, err := req.Space.Space()
	if err != nil {
		return TaskResult{}, err
	}
	cfg := s.tuneConfig(req)
	runner := cluster.NewTrialRunner(s.run, req.Dataset, cfg.Train, core.PoolSize(req.Dataset.Rows, cfg.Train))
	start := time.Now()
	res, err := tune.SearchRunner(ctx, space, runner, cfg)
	if err != nil {
		return TaskResult{}, err
	}
	return s.finishTune(ctx, res, req.Dataset, cfg.Train, time.Since(start))
}

// pinDataset turns a reference as submitted — in a request body, or kept by
// an audit record — into the one tasks carry. A stored id gains its
// manifest's checksums, so whoever runs the task can tell its copy holds the
// same bytes, and every kind gains its row count without being materialized.
// The pin is the server's to fill: a reference that arrives with it is
// refused. A synthetic shape is held to MaxUploadBytes as dense rows, the cap
// on every other way of bringing that many rows to the server.
func (s *Server) pinDataset(ref *DatasetRef) error {
	if *ref != ref.Submitted() {
		return errors.New("serve: dataset rows, row_crc32 and index_crc32 are set by the server, not the request")
	}
	switch {
	case ref.ID != "":
		h, err := s.store.Get(ref.ID)
		if err != nil {
			return err
		}
		man := h.Manifest()
		ref.Rows, ref.RowCRC32, ref.IndexCRC32 = man.Rows, man.RowCRC32, man.IndexCRC32
	case ref.Synthetic != nil:
		rows, dim, err := ref.Synthetic.Shape()
		if err != nil {
			return err
		}
		if 8*float64(rows)*float64(dim) > float64(s.cfg.MaxUploadBytes) {
			return fmt.Errorf("serve: synthetic dataset of %d x %d values exceeds %d bytes", rows, dim, s.cfg.MaxUploadBytes)
		}
		ref.Rows = rows
	case ref.Inline != nil:
		ref.Rows = ref.Inline.Rows()
	}
	return nil
}
