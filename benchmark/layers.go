package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/serve"
	"blinkml/internal/stat"
)

// metric names a reported number and its unit; BENCHMARK.json lists the
// same names with the same units.
type metric struct{ name, unit string }

// endToEnd are the gated metrics of the untraced run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"contract_p10_ms", "ms"},
	{"contract_alloc_mb", "MB"},
	{"predict_p10_ms", "ms"},
	{"predict_alloc_kb", "KB"},
	{"sample_frac", "ratio"},
}

// perLayer are the ungated metrics of the traced run. Every workload
// reports all of them; one that does not touch a layer reports 0 for it.
var perLayer = []metric{
	{"blinkml.contract_p50_ms", "ms"},
	{"blinkml.contract_p90_ms", "ms"},
	{"blinkml.predict_p50_ms", "ms"},

	{"core.env_ms", "ms"},
	{"core.initial_train_ms", "ms"},
	{"core.statistics_ms", "ms"},
	{"core.sample_search_ms", "ms"},
	{"core.final_train_ms", "ms"},
	{"core.accuracy_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.probes", "count"},
	{"core.rank", "count"},
	{"core.chosen_n", "count"},
	{"core.search_n", "count"},
	{"core.staged_match", "count"},

	{"models.grad_rows_ms", "ms"},
	{"models.grad_rows_mb", "MB"},
	{"models.eval_ms", "ms"},
	{"models.predict_ns_row", "ns"},

	{"optimize.iters_initial", "count"},
	{"optimize.iters_final", "count"},
	{"optimize.ms_per_iter", "ms"},

	{"linalg.syrk_ms", "ms"},
	{"linalg.symeig_ms", "ms"},
	{"linalg.matmul_ms", "ms"},
	{"linalg.syrk_flops", "flop"},
	{"linalg.symeig_flops", "flop"},

	{"compute.degree2_ratio", "ratio"},

	{"dataset.subset_ms", "ms"},
	{"dataset.sample_nnz", "count"},

	{"store.ingest_ms", "ms"},
	{"store.ingest_mb_s", "MB/s"},
	{"store.disk_bytes", "bytes"},
	{"store.materialize_ms", "ms"},
	{"store.rows_materialized", "count"},

	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_run_ms", "ms"},
	{"serve.polls_per_ladder", "count"},
	{"serve.rung1_ms", "ms"},
	{"serve.rung2_ms", "ms"},
	{"serve.rung3_ms", "ms"},
	{"serve.rung4_ms", "ms"},
	{"serve.predict_decode_us", "us"},
	{"serve.predict_validate_us", "us"},
	{"serve.registry_get_us", "us"},
	{"serve.predict_kernel_us", "us"},
	{"serve.predict_encode_us", "us"},
	{"serve.http_overhead_us", "us"},

	{"modelio.encode_ms", "ms"},
	{"modelio.decode_ms", "ms"},
	{"modelio.model_bytes", "bytes"},

	{"obs.bound_overhead_frac", "ratio"},
	{"harness.trace_overhead_frac", "ratio"},
}

// medianOf is the median over items of one float field.
func medianOf[T any](items []T, field func(T) float64) float64 {
	xs := make([]float64, len(items))
	for i, it := range items {
		xs[i] = field(it)
	}
	return median(xs)
}

// degree2Ratio reruns the first plain contracts at compute degree 2 — the
// one place the pool's parallel path is exercised — against the p10 of the
// same contracts at degree 1.
func degree2Ratio(inst instance, run *tracedRun) float64 {
	compute.SetParallelism(2)
	defer compute.SetParallelism(1)
	p := runPhase(ops(degree2Ops, run.seconds), func(k int) error {
		_, err := inst.contract(k, nil)
		return err
	})
	return p.p(0.10) / quantile(run.plain.ms[:len(p.ms)], 0.10)
}

// leafProbes times the kernels below the coordinator in isolation, at the
// shapes the staged contract res just ran them at.
func leafProbes(m map[string]float64, spec models.Spec, res *stagedResult, seed int64) error {
	// models: the statistics phase's per-example gradients on the n0
	// sample, one objective evaluation on the final sample.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	models.PerExampleGradRows(spec, res.sample0, res.theta0)
	runtime.ReadMemStats(&after)
	m["models.grad_rows_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["models.grad_rows_ms"] = bestOf(3, func() { models.PerExampleGradRows(spec, res.sample0, res.theta0) })
	obj := models.Objective(spec, res.sampleN)
	grad := make([]float64, obj.Dim())
	m["models.eval_ms"] = bestOf(3, func() { obj.Eval(res.theta, grad) })
	m["dataset.sample_nnz"] = float64(res.sampleN.NNZ())

	// linalg: ObservedFisher factors the smaller Gram side, k = min(d, n0),
	// accumulated over the other dimension (capped: the Gram side of the
	// sparse workload never forms a dense n0 x d matrix).
	d, n0 := len(res.theta0), res.sample0.Len()
	k, inner := min(d, n0), min(max(d, n0), 2048)
	a := linalg.NewDense(k, inner)
	stat.NewRNG(seed).NormVec(a.Data)
	var g *linalg.Dense
	m["linalg.syrk_ms"] = bestOf(3, func() { g = linalg.Syrk(a) })
	m["linalg.syrk_flops"] = float64(k) * float64(k+1) * float64(inner)
	var eigErr error
	m["linalg.symeig_ms"] = bestOf(2, func() { _, eigErr = linalg.NewSymEig(g) })
	if eigErr != nil {
		return eigErr
	}
	// Nominal: tridiagonalisation 4/3 k³, accumulating it 4/3 k³, QL with
	// vectors about 6 k³.
	m["linalg.symeig_flops"] = 9 * float64(k) * float64(k) * float64(k)
	m["linalg.matmul_ms"] = bestOf(3, func() { linalg.MatMul(g, g) })

	// modelio: the registry's encode on job completion and decode on load.
	rec := &modelio.Model{Spec: spec, Theta: res.theta, SampleSize: res.n, PoolSize: res.pool}
	var buf bytes.Buffer
	var ioErr error
	m["modelio.encode_ms"] = bestOf(5, func() {
		buf.Reset()
		if err := modelio.Encode(&buf, rec); err != nil {
			ioErr = err
		}
	})
	m["modelio.model_bytes"] = float64(buf.Len())
	encoded := buf.Bytes()
	m["modelio.decode_ms"] = bestOf(5, func() {
		if _, err := modelio.Decode(bytes.NewReader(encoded)); err != nil {
			ioErr = err
		}
	})
	return ioErr
}

// spanLayers fills the metrics read off the staged contract's span tree.
func spanLayers(m map[string]float64, tr *tracer, res *stagedResult) {
	total, _ := layerTimes(tr.spans)
	m["core.env_ms"] = total["core.env"]
	m["core.accuracy_ms"] = total["core.accuracy"]
	m["core.search_ms"] = total["core.search"]
	m["dataset.subset_ms"] = total["dataset.sample"]
	m["optimize.ms_per_iter"] = total["optimize.train"] / float64(res.itersInit+res.itersFinal)
	m["optimize.iters_initial"] = float64(res.itersInit)
	m["optimize.iters_final"] = float64(res.itersFinal)
	m["core.probes"] = float64(len(res.probes))
	m["core.rank"] = float64(res.rank)
	m["core.search_n"] = float64(searchN(res.probes, res.n, res.pool))
}

func (p *inproc) layers(m map[string]float64, run *tracedRun) error {
	res := p.staged
	spanLayers(m, run.tr, res)
	m["core.chosen_n"] = float64(p.model.SampleSize)
	if res.n == p.model.SampleSize && core.ThetaFingerprint(res.theta) == core.ThetaFingerprint(p.model.Theta) {
		m["core.staged_match"] = 1
	}
	// The four Figure-8a phases as the coordinator clocks them itself.
	phaseMs := func(f func(core.Diagnostics) time.Duration) float64 {
		return medianOf(p.diags, func(d core.Diagnostics) float64 { return ms(f(d)) })
	}
	m["core.initial_train_ms"] = phaseMs(func(d core.Diagnostics) time.Duration { return d.InitialTrain })
	m["core.statistics_ms"] = phaseMs(func(d core.Diagnostics) time.Duration { return d.Statistics })
	m["core.sample_search_ms"] = phaseMs(func(d core.Diagnostics) time.Duration { return d.SampleSearch })
	m["core.final_train_ms"] = phaseMs(func(d core.Diagnostics) time.Duration { return d.FinalTrain })

	p.store.layers(m, len(p.in.text))

	// Instrumentation A/B: the contract with the serving queue's context
	// (trace, recorder, ledger bound) against the bare one, interleaved.
	var bare, bound []float64
	for k := 0; k < ops(boundOps, run.seconds); k++ {
		var err error
		bare = append(bare, timeIt(func() { _, err = p.contract(k, nil) }))
		if err != nil {
			return err
		}
		bound = append(bound, timeIt(func() { err = p.boundContract(k) }))
		if err != nil {
			return err
		}
	}
	m["obs.bound_overhead_frac"] = quantile(bound, 0.10)/quantile(bare, 0.10) - 1

	m["compute.degree2_ratio"] = degree2Ratio(p, run)
	m["models.predict_ns_row"] = run.predict.p(0.10) * 1e6 / float64(len(p.in.rows))
	return leafProbes(m, p.w.spec, res, p.in.seed)
}

func (s *served) layers(m map[string]float64, run *tracedRun) error {
	// What the server reports about its own jobs, per ladder.
	perLadder := func(f func(st serve.JobStatus) float64) float64 {
		return medianOf(s.ladders, func(ladder []serve.JobStatus) float64 {
			var t float64
			for _, st := range ladder {
				t += f(st)
			}
			return t
		})
	}
	stage := func(name string) func(serve.JobStatus) float64 {
		return func(st serve.JobStatus) float64 {
			if st.Trace == nil {
				return 0
			}
			for _, sg := range st.Trace.Stages {
				if sg.Name == name {
					return sg.Ms
				}
			}
			return 0
		}
	}
	m["core.env_ms"] = perLadder(stage("ingest"))
	m["core.search_ms"] = perLadder(stage("probe"))
	m["dataset.subset_ms"] = perLadder(stage("sample"))
	m["core.initial_train_ms"] = perLadder(func(st serve.JobStatus) float64 { return st.Diagnostics.InitialTrainMs })
	m["core.statistics_ms"] = perLadder(func(st serve.JobStatus) float64 { return st.Diagnostics.StatisticsMs })
	m["core.sample_search_ms"] = perLadder(func(st serve.JobStatus) float64 { return st.Diagnostics.SampleSearchMs })
	m["core.final_train_ms"] = perLadder(func(st serve.JobStatus) float64 { return st.Diagnostics.FinalTrainMs })
	m["optimize.iters_initial"] = perLadder(func(st serve.JobStatus) float64 { return float64(st.Diagnostics.InitialIters) })
	m["optimize.iters_final"] = perLadder(func(st serve.JobStatus) float64 { return float64(st.Diagnostics.FinalIters) })
	m["optimize.ms_per_iter"] = perLadder(stage("optimize")) / (m["optimize.iters_initial"] + m["optimize.iters_final"])
	m["serve.queue_wait_ms"] = perLadder(func(st serve.JobStatus) float64 { return ms(st.StartedAt.Sub(st.EnqueuedAt)) })
	m["serve.job_run_ms"] = perLadder(func(st serve.JobStatus) float64 { return ms(st.FinishedAt.Sub(st.StartedAt)) })
	m["serve.polls_per_ladder"] = median(s.polls)
	s.store.layers(m, len(s.in.text))
	last, lastK := s.ladders[len(s.ladders)-1], s.lastK
	var chosen float64
	for _, st := range last {
		rec, err := s.srv.Registry().Get(st.ModelID)
		if err != nil {
			return err
		}
		chosen += float64(rec.SampleSize)
		m["core.probes"] += float64(len(rec.Diag.Probes))
		m["core.rank"] = float64(rec.Diag.Rank)
	}
	m["core.chosen_n"] = chosen / float64(len(last))

	// What the client saw, from its own spans on the traced ladders.
	total, _ := layerTimes(run.tr.spans)
	m["serve.submit_ms"] = total["serve.submit"]
	m["serve.rung1_ms"] = total["serve.rung1"]
	m["serve.rung2_ms"] = total["serve.rung2"]
	m["serve.rung3_ms"] = total["serve.rung3"]
	m["serve.rung4_ms"] = total["serve.rung4"]

	// The predict handler's steps, each on its own at the request's shape.
	rec, err := s.srv.Registry().Get(s.modelID)
	if err != nil {
		return err
	}
	var req serve.PredictRequest
	us := func(k int, fn func()) float64 { return bestOf(k, fn) * 1e3 }
	m["serve.predict_decode_us"] = us(20, func() {
		req = serve.PredictRequest{}
		err = json.Unmarshal(s.predictBody, &req)
	})
	if err != nil {
		return err
	}
	m["serve.predict_validate_us"] = us(20, func() { err = req.Validate(rec.Dim) })
	if err != nil {
		return err
	}
	m["serve.registry_get_us"] = us(20, func() { _, err = s.srv.Registry().Get(s.modelID) })
	if err != nil {
		return err
	}
	resp := serve.PredictResponse{ModelID: s.modelID, Predictions: make([]float64, len(req.Rows))}
	m["serve.predict_kernel_us"] = us(20, func() {
		for i, row := range req.Rows {
			resp.Predictions[i] = rec.Spec.Predict(rec.Theta, dataset.DenseRow(row))
		}
	})
	m["serve.predict_encode_us"] = us(20, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return err
	}
	steps := m["serve.predict_decode_us"] + m["serve.predict_validate_us"] + m["serve.registry_get_us"] +
		m["serve.predict_kernel_us"] + m["serve.predict_encode_us"]
	m["serve.http_overhead_us"] = run.predict.p(0.10)*1e3 - steps
	m["models.predict_ns_row"] = m["serve.predict_kernel_us"] * 1e3 / float64(len(req.Rows))

	m["compute.degree2_ratio"] = degree2Ratio(s, run)

	// The kernels under the last ladder's last rung, on the same rows held
	// in memory.
	lastRung := s.w.rungs[len(s.w.rungs)-1]
	mem := &inproc{w: s.w, in: s.in, src: s.in.ds}
	res, err := mem.stagedContract(s.w.options(lastRung, s.in.seed, lastK), newTracer())
	if err != nil {
		return err
	}
	m["core.search_n"] = float64(searchN(res.probes, res.n, res.pool))
	if rec, err := s.srv.Registry().Get(last[len(last)-1].ModelID); err == nil &&
		res.n == rec.SampleSize && core.ThetaFingerprint(res.theta) == core.ThetaFingerprint(rec.Theta) {
		m["core.staged_match"] = 1
	}
	return leafProbes(m, s.w.spec, res, s.in.seed)
}
