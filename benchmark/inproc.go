package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"blinkml"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/stat"
	"blinkml/internal/store"
)

// contractInfo is what one contract op reports for the correctness gate and
// sample_frac: per rung the chosen n, the n the search asked for, the pool
// size and θ's fingerprint.
type contractInfo struct {
	n, searchN, pool []int
	theta            []uint64
}

// addRung appends one trained model's numbers.
func (c *contractInfo) addRung(n, pool int, probes []core.Probe, theta []float64) {
	c.n = append(c.n, n)
	c.searchN = append(c.searchN, searchN(probes, n, pool))
	c.pool = append(c.pool, pool)
	c.theta = append(c.theta, core.ThetaFingerprint(theta))
}

// searchN is the sample size the search returned, before min_sample_size
// floored it: the smallest probe that satisfied the criterion, the whole
// pool when none did. A contract that took the early exit never searched
// and keeps its chosen n (= n₀).
func searchN(probes []core.Probe, chosen, pool int) int {
	if len(probes) == 0 {
		return chosen
	}
	n := pool
	for _, p := range probes {
		if p.Satisfied {
			n = min(n, p.N)
		}
	}
	return n
}

// sampleFrac is the share of the pool the search asked for, mean over rungs.
func (c contractInfo) sampleFrac() float64 {
	var f float64
	for i := range c.searchN {
		f += float64(c.searchN[i]) / float64(c.pool[i])
	}
	return f / float64(len(c.searchN))
}

// instance is a workload after set-up: the program state the timed phases
// run against. contract runs the run's k-th contract; a nil tracer means the
// plain op.
type instance interface {
	contract(k int, tr *tracer) (contractInfo, error)
	// preparePredict computes, untimed, what every predict op must return.
	preparePredict() error
	predict() error
	// verify is the untimed end-of-run check; layers fills the traced run's
	// per-layer metrics.
	verify() error
	layers(m map[string]float64, run *tracedRun) error
	close()
}

// tracedRun is what the traced run measured before asking the instance for
// its per-layer numbers.
type tracedRun struct {
	tr                     *tracer
	seconds                int
	plain, traced, predict phase
}

// inproc runs a workload through the library entry points, over an
// in-memory dataset or a store handle.
type inproc struct {
	w  *workload
	in *inputs

	dir   string     // store directory ("" for the -mem workloads)
	store storeProbe // handle stays nil for the -mem workloads
	src   dataset.Source

	model    *blinkml.Model // the last plain contract's model; predict ops score with it
	modelOpt core.Options   // the options it was trained with
	expected []float64      // spec.Predict over in.rows, computed directly
	staged   *stagedResult  // the last staged contract

	diags []core.Diagnostics // the coordinator's own phase clock, per plain contract
}

// storeProbe watches the store under a workload: the set-up's ingest time
// and, per plain contract op, the handle's materialisation counters.
type storeProbe struct {
	handle   *store.Handle
	ingestMs float64
	ms, rows []float64
}

// around runs op and records what it made the handle materialise.
func (s *storeProbe) around(op func() error) error {
	if s.handle == nil {
		return op()
	}
	nanos, rows := s.handle.MaterializeNanos(), s.handle.RowsMaterialized()
	if err := op(); err != nil {
		return err
	}
	s.ms = append(s.ms, float64(s.handle.MaterializeNanos()-nanos)/1e6)
	s.rows = append(s.rows, float64(s.handle.RowsMaterialized()-rows))
	return nil
}

// layers fills the store.* metrics; textBytes is the size of the ingested
// text.
func (s *storeProbe) layers(m map[string]float64, textBytes int) {
	if s.handle == nil {
		return
	}
	m["store.ingest_ms"] = s.ingestMs
	m["store.ingest_mb_s"] = float64(textBytes) / 1e6 / (s.ingestMs / 1e3)
	m["store.disk_bytes"] = float64(s.handle.DiskBytes())
	m["store.materialize_ms"] = median(s.ms)
	m["store.rows_materialized"] = median(s.rows)
}

func setUpInproc(w *workload, in *inputs) (inst *inproc, err error) {
	p := &inproc{w: w, in: in, src: in.ds}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if w.format == "libsvm" {
		if p.dir, err = os.MkdirTemp(".", tempPattern); err != nil {
			return nil, err
		}
		st, err := store.Open(p.dir)
		if err != nil {
			return nil, err
		}
		p.store.ingestMs = timeIt(func() {
			p.store.handle, err = st.Ingest(bytes.NewReader(in.text), store.IngestOptions{
				Format: "libsvm", Task: in.ds.Task, Dim: in.ds.Dim,
			})
		})
		if err != nil {
			return nil, err
		}
		p.src = p.store.handle
	}
	for k := 0; k < w.warmups; k++ {
		if _, err := p.contract(k, nil); err != nil {
			return nil, fmt.Errorf("warm-up contract: %w", err)
		}
	}
	return p, nil
}

func (p *inproc) close() {
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

func (p *inproc) options(k int) core.Options { return p.w.options(p.w.rungs[0], p.in.seed, k) }

func (p *inproc) contract(k int, tr *tracer) (info contractInfo, err error) {
	opt := p.options(k)
	if tr != nil {
		res, err := p.stagedContract(opt, tr)
		if err != nil {
			return info, err
		}
		p.staged = res
		info.addRung(res.n, res.pool, res.probes, res.theta)
		return info, nil
	}
	var m *blinkml.Model
	err = p.store.around(func() (err error) {
		m, err = blinkml.TrainSource(context.Background(), p.w.spec, p.src, opt)
		return err
	})
	if err != nil {
		return info, err
	}
	p.model, p.modelOpt = m, opt
	p.diags = append(p.diags, m.Diag)
	info.addRung(m.SampleSize, m.PoolSize, m.Diag.Probes, m.Theta)
	return info, nil
}

func (p *inproc) preparePredict() error {
	p.expected = make([]float64, len(p.in.rows))
	for i, x := range p.in.rows {
		p.expected[i] = p.w.spec.Predict(p.model.Theta, x)
	}
	return nil
}

// predict scores the fixed row slice with the public Model.Predict and
// checks every output against Spec.Predict computed directly. The op returns
// its predictions in a fresh slice, as a batch call would: those 8 bytes per
// row keep predict_alloc_kb above 0 on the models whose Predict allocates
// nothing (the driver divides by the parent's value), and anything Predict
// itself came to allocate per row would at least double the metric.
func (p *inproc) predict() error {
	out := make([]float64, len(p.in.rows))
	for i, x := range p.in.rows {
		out[i] = p.model.Predict(x)
	}
	for i, v := range out {
		if v != p.expected[i] {
			return fmt.Errorf("row %d: predicted %v, want %v", i, v, p.expected[i])
		}
	}
	return nil
}

// verify checks the last contract's promise: it trains the full model to
// convergence on that contract's own split and compares, realised v ≤ ε̂.
func (p *inproc) verify() error {
	env, err := core.NewEnvFromSource(p.src, p.modelOpt)
	if err != nil {
		return err
	}
	res := &core.Result{Theta: p.model.Theta, EstimatedEpsilon: p.model.EstimatedEpsilon}
	rep, err := core.ValidateGuarantee(env, p.w.spec, res, p.modelOpt.Optimizer)
	if err != nil {
		return err
	}
	logf("guarantee: realised v %.5f, promised %.5f, full model %d iterations", rep.Realized, rep.Bound, rep.FullIters)
	if !rep.Satisfied {
		return fmt.Errorf("guarantee violated: realised v %.5f > promised %.5f", rep.Realized, rep.Bound)
	}
	return nil
}

// stagedResult is a contract assembled from the coordinator's public calls,
// with what the leaf probes need to rerun its kernels at the same shapes.
type stagedResult struct {
	theta, theta0         []float64
	n, pool, rank         int
	probes                []core.Probe
	itersInit, itersFinal int // itersFinal stays 0 on the §2.3 early exit
	sample0, sampleN      *dataset.Dataset
}

// stagedContract is core.TrainSource taken apart: the same calls in the same order
// on the same RNG stream, each inside a span. core.staged_match reports
// whether it still lands on TrainSource's n and θ.
func (p *inproc) stagedContract(opt core.Options, tr *tracer) (*stagedResult, error) {
	spec, opt := p.w.spec, opt.WithDefaults()
	defer tr.begin("blinkml.contract")()

	end := tr.begin("core.env")
	env, err := core.NewEnvFromSource(p.src, opt)
	end()
	if err != nil {
		return nil, err
	}
	res := &stagedResult{pool: env.PoolLen()}
	n0 := opt.InitialSampleSize
	if n0 >= res.pool {
		return nil, errors.New("staged contract: n0 covers the pool")
	}
	rng := stat.NewRNG(opt.Seed + 0x5EED)
	train := func(phase string, n int) (*dataset.Dataset, models.TrainResult, error) {
		defer tr.begin(phase)()
		end := tr.begin("dataset.sample")
		sample, err := env.Sample(rng, n)
		end()
		if err != nil {
			return nil, models.TrainResult{}, err
		}
		defer tr.begin("optimize.train")()
		m, err := models.Train(spec, sample, nil, opt.Optimizer)
		return sample, m, err
	}

	sample0, m0, err := train("core.initial_train", n0)
	if err != nil {
		return nil, err
	}
	res.sample0, res.theta0, res.itersInit = sample0, m0.Theta, m0.Iters
	res.sampleN, res.theta, res.n = sample0, m0.Theta, n0

	end = tr.begin("core.statistics")
	stats, err := core.ComputeStatistics(spec, sample0, m0.Theta, opt)
	end()
	if err != nil {
		return nil, err
	}
	res.rank = stats.Rank
	factor := core.Inflate(stats.Factor, opt.VarianceInflation)

	end = tr.begin("core.accuracy")
	est := core.EstimateAccuracy(spec, m0.Theta, factor, core.Alpha(n0, res.pool), env.Holdout(), opt.K, opt.Delta, rng)
	end()
	if est.Epsilon <= opt.Epsilon {
		return res, nil
	}

	end = tr.begin("core.search")
	sres := core.NewSearcher(spec, m0.Theta, factor, n0, res.pool, env.Holdout(), opt.Epsilon, opt.Delta, opt.K, rng).Search()
	end()
	res.probes = sres.Probes
	res.n = min(max(sres.N, opt.MinSampleSize), res.pool)

	sampleN, mn, err := train("core.final_train", res.n)
	if err != nil {
		return nil, err
	}
	res.sampleN, res.theta, res.itersFinal = sampleN, mn.Theta, mn.Iters
	return res, nil
}

// boundContract is the contract op the way the serving queue runs it: trace
// id, span recorder and ledger in the context, ledger bound to the
// goroutine.
func (p *inproc) boundContract(k int) error {
	ledger := obs.NewLedger()
	ctx := obs.WithRecorder(obs.WithTrace(context.Background(), "benchmark"), obs.NewRecorder("benchmark"))
	ctx = obs.WithLedger(ctx, ledger)
	defer obs.BindLedger(ledger)()
	_, err := core.TrainSourceContext(ctx, p.w.spec, p.src, p.options(k))
	return err
}
