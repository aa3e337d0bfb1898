package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// BenchResult is one machine-readable benchmark row: a seeded BlinkML
// training run on one of the paper's eight workloads. The JSON shape is
// stable so successive files (the repo's BENCH_*.json trajectory) can be
// diffed across commits.
type BenchResult struct {
	// Name is the workload id (e.g. "lr-higgs").
	Name string `json:"name"`
	// Scale is the workload scale the run used.
	Scale string `json:"scale"`
	// Rows and Dim describe the generated dataset.
	Rows int `json:"rows"`
	Dim  int `json:"dim"`
	// NsPerOp is the mean end-to-end BlinkML training time in nanoseconds
	// across Iters repeated runs.
	NsPerOp int64 `json:"ns_per_op"`
	// Iters is how many timed training runs the row aggregates; P50Ms and
	// P99Ms are latency quantiles across them (exact order statistics at
	// this iteration count), so the trajectory tracks tail behavior, not
	// just the mean.
	Iters int     `json:"iters"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// SampleSize is the number of rows the returned model trained on, out
	// of PoolSize.
	SampleSize int `json:"sample_size"`
	PoolSize   int `json:"pool_size"`
	// Epsilon is the model's estimated ε bound; RequestedEpsilon is the
	// contract it was asked for.
	Epsilon          float64 `json:"epsilon"`
	RequestedEpsilon float64 `json:"requested_epsilon"`
	// UsedInitialModel reports the §2.3 early exit (the n₀ model already
	// met the contract).
	UsedInitialModel bool `json:"used_initial_model"`
	// AllocsPerOp and BytesPerOp are per-iteration heap-allocation deltas
	// (runtime.MemStats Mallocs / TotalAlloc across the timed loop, divided
	// by Iters) — the memory-pressure axis of the trajectory.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// KernelResult is one micro-kernel timing row: the hot linalg and
// statistics kernels the training path is built from, so successive
// BENCH_*.json files track kernel regressions separately from end-to-end
// drift.
type KernelResult struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	// P50Ms and P99Ms are per-iteration latency quantiles from the same
	// timed loop NsPerOp averages over.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Parallelism is the compute-pool degree the kernel ran at.
	Parallelism int `json:"parallelism"`
	// AllocsPerOp and BytesPerOp are per-iteration heap-allocation deltas.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// BenchSummary is the envelope written by blinkml-bench -json.
type BenchSummary struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// Env records the toolchain and machine shape the numbers were taken
	// on, so cross-commit diffs can tell a code regression from a
	// different box.
	Env     obs.Env        `json:"env"`
	Results []BenchResult  `json:"results"`
	Kernels []KernelResult `json:"kernels,omitempty"`
}

// RunBench trains one contract-grade BlinkML model per workload at the
// given scale (ε = 0.05, the paper's 95% operating point) and reports the
// timing/sample-size summary plus micro-kernel timings. Deterministic in
// seed (up to wall-clock noise in the timings themselves).
func RunBench(scale Scale, seed int64) (*BenchSummary, error) {
	sum := &BenchSummary{Scale: scale.String(), Seed: seed, Env: obs.CaptureEnv()}
	for _, w := range append(Workloads(), SparseWorkloads()...) {
		r, err := benchWorkload(w, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s: %w", w.ID, err)
		}
		sum.Results = append(sum.Results, r)
	}
	ks, err := benchKernels(seed)
	if err != nil {
		return nil, err
	}
	sum.Kernels = ks
	return sum, nil
}

// benchKernels times the statistics-phase building blocks: dense matrix
// products, the symmetric eigensolver, and the two ObservedFisher paths.
func benchKernels(seed int64) ([]KernelResult, error) {
	rng := stat.NewRNG(seed)
	mk := func(r, c int) *linalg.Dense {
		m := linalg.NewDense(r, c)
		for i := range m.Data {
			m.Data[i] = rng.Norm()
		}
		return m
	}
	a256 := mk(256, 256)
	b256 := mk(256, 256)
	sym := mk(256, 256)
	sym.Symmetrize()

	// Statistics-phase fixtures: a trained initial model on each Gram side.
	gram := datagen.Criteo(datagen.Config{Rows: 4000, Dim: 800, Seed: seed})
	gramSample := gram.Subset(dataset.SampleWithoutReplacement(stat.NewRNG(seed+1), gram.Len(), 400))
	cov := datagen.Higgs(datagen.Config{Rows: 4000, Dim: 40, Seed: seed})
	covSample := cov.Subset(dataset.SampleWithoutReplacement(stat.NewRNG(seed+2), cov.Len(), 800))
	spec := models.LogisticRegression{Reg: 0.001}
	gramFit, err := models.Train(spec, gramSample, nil, optimize.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: kernel bench fixture: %w", err)
	}
	covFit, err := models.Train(spec, covSample, nil, optimize.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: kernel bench fixture: %w", err)
	}
	statOpts := core.Options{Epsilon: 0.05}.WithDefaults()

	kernels := []struct {
		name string
		fn   func() error
	}{
		{"matmul-256", func() error { linalg.MatMul(a256, b256); return nil }},
		{"syrk-256", func() error { linalg.Syrk(a256); return nil }},
		{"symeig-256", func() error { _, err := linalg.NewSymEig(sym); return err }},
		{"stats-fisher-gram", func() error {
			_, err := core.ComputeStatistics(spec, gramSample, gramFit.Theta, statOpts)
			return err
		}},
		{"stats-fisher-cov", func() error {
			_, err := core.ComputeStatistics(spec, covSample, covFit.Theta, statOpts)
			return err
		}},
	}
	out := make([]KernelResult, 0, len(kernels))
	for _, k := range kernels {
		ns, lat, allocs, bytes, err := timeKernel(k.fn)
		if err != nil {
			return nil, fmt.Errorf("experiments: kernel bench %s: %w", k.name, err)
		}
		out = append(out, KernelResult{
			Name:        k.name,
			NsPerOp:     ns,
			P50Ms:       lat.Quantile(0.50),
			P99Ms:       lat.Quantile(0.99),
			Parallelism: compute.Parallelism(),
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
		})
	}
	return out, nil
}

// exactQuantileCutoff is the sample count below which quantiles come from
// the raw samples instead of histogram buckets. obs.Histogram's geometric
// base-2 buckets are built for unbounded metric streams; with a handful of
// benchmark iterations every run lands in one or two coarse buckets and the
// interpolated p50 and p99 collapse to the same bucket-boundary value
// across unrelated workloads. Below this cutoff the raw samples fit
// trivially in memory, so order statistics are both exact and free.
const exactQuantileCutoff = 30

// latencySampler collects per-iteration latencies (ms) and reports
// quantiles: exact order statistics while the sample count is small,
// histogram interpolation once the raw set would stop being cheap.
type latencySampler struct {
	raw  []float64
	hist *obs.Histogram
}

func newLatencySampler() *latencySampler {
	return &latencySampler{hist: obs.NewHistogram()}
}

func (s *latencySampler) Observe(ms float64) {
	if len(s.raw) < exactQuantileCutoff {
		s.raw = append(s.raw, ms)
	}
	s.hist.Observe(ms)
}

// Quantile returns the q-th latency quantile: the nearest-rank order
// statistic when all samples are retained, the histogram estimate
// otherwise.
func (s *latencySampler) Quantile(q float64) float64 {
	n := len(s.raw)
	if n == 0 {
		return 0
	}
	if n >= exactQuantileCutoff {
		return s.hist.Quantile(q)
	}
	sorted := make([]float64, n)
	copy(sorted, s.raw)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// timeKernel reports the mean wall time of fn, per-iteration latency
// quantiles, and per-iteration allocation deltas: one warm-up call, then as
// many timed iterations as fit in ~300 ms (at least 3). Allocation counts
// come from runtime.MemStats deltas around the whole timed loop — they are
// process-wide (so run benchmarks alone), but Mallocs/TotalAlloc are
// monotonic counters unaffected by GC, which makes the per-op averages
// stable across runs.
func timeKernel(fn func() error) (int64, *latencySampler, int64, int64, error) {
	if err := fn(); err != nil {
		return 0, nil, 0, 0, err
	}
	const budget = 300 * time.Millisecond
	lat := newLatencySampler()
	var iters int
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for elapsed := time.Duration(0); iters < 3 || elapsed < budget; elapsed = time.Since(start) {
		it := time.Now()
		if err := fn(); err != nil {
			return 0, nil, 0, 0, err
		}
		lat.Observe(float64(time.Since(it)) / float64(time.Millisecond))
		iters++
	}
	nsPerOp := time.Since(start).Nanoseconds() / int64(iters)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	allocs := int64(msAfter.Mallocs-msBefore.Mallocs) / int64(iters)
	bytes := int64(msAfter.TotalAlloc-msBefore.TotalAlloc) / int64(iters)
	return nsPerOp, lat, allocs, bytes, nil
}

// benchIters is how many timed training runs one workload row aggregates —
// enough for a meaningful p50 (the p99 saturates to the slowest run at this
// count) while keeping the full small-scale suite in tens of seconds.
const benchIters = 5

func benchWorkload(w Workload, scale Scale, seed int64) (BenchResult, error) {
	ds := w.Data(scale, seed)
	opt := core.Options{
		Epsilon:           0.05,
		Delta:             0.05,
		Seed:              seed,
		InitialSampleSize: initialSampleSize(scale),
		K:                 paramSamples(scale),
	}
	// Every iteration reruns the same seeded training, so the model outputs
	// are identical; only the wall time varies. The sampler turns those
	// repeats into exact tail quantiles (at benchIters runs, raw order
	// statistics — histogram buckets are too coarse at this count).
	lat := newLatencySampler()
	var res *core.Result
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i := 0; i < benchIters; i++ {
		it := time.Now()
		r, err := core.TrainSourceContext(context.Background(), w.Spec(scale), ds, opt)
		if err != nil {
			return BenchResult{}, err
		}
		lat.Observe(float64(time.Since(it)) / float64(time.Millisecond))
		res = r
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	return BenchResult{
		Name:             w.ID,
		Scale:            scale.String(),
		Rows:             ds.Len(),
		Dim:              ds.Dim,
		NsPerOp:          elapsed.Nanoseconds() / benchIters,
		Iters:            benchIters,
		P50Ms:            lat.Quantile(0.50),
		P99Ms:            lat.Quantile(0.99),
		SampleSize:       res.SampleSize,
		PoolSize:         res.PoolSize,
		Epsilon:          res.EstimatedEpsilon,
		RequestedEpsilon: opt.Epsilon,
		UsedInitialModel: res.UsedInitialModel,
		AllocsPerOp:      int64(msAfter.Mallocs-msBefore.Mallocs) / benchIters,
		BytesPerOp:       int64(msAfter.TotalAlloc-msBefore.TotalAlloc) / benchIters,
	}, nil
}

// WriteJSON emits the summary as indented JSON.
func (s *BenchSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
