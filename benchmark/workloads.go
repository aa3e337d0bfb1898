package main

import (
	"bytes"
	"fmt"
	"slices"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// referenceSeconds is the --seconds value the op counts below are sized
// for; another value scales every count in proportion. Counts, never time
// budgets, end a phase, so two commits measured at the same --seconds do
// equal work.
const referenceSeconds = 12

// populationSeed seeds the generators. A generator draws its ground-truth
// model from its seed, so another seed is another problem (ε₀ on Criteo
// ranges 0.22–0.41 over seeds), not another sample of the same one. The
// benchmark therefore generates one fixed population per workload and lets
// --seed pick which four fifths of its rows the program is given.
const populationSeed = 1

// rung is one (ε, δ = 0.05) contract. minN is the request's
// min_sample_size floor, above the range the search lands in: every
// contract of a phase then trains its final model on the same number of
// rows, with the margin the end-of-run guarantee check needs (it is a
// probabilistic promise checked on one draw). The search still runs in
// full, and its own answer is what sample_frac reports.
type rung struct {
	epsilon float64
	minN    int
}

// workload is one benchmark workload: how its inputs are generated, the
// contract it requests and how many ops each phase runs.
type workload struct {
	name, why string

	generate  func(datagen.Config) *dataset.Dataset
	rows, dim int
	spec      models.Spec
	n0        int
	rungs     []rung
	// format is how the program receives the data: "" in memory, "libsvm"
	// through store.Ingest, "csv" through POST /v1/datasets.
	format string

	contractOps, predictOps int // at referenceSeconds
	warmups                 int // contract ops inside one set-up
	predictRows             int // rows per predict op
}

func (w *workload) served() bool { return w.format == "csv" }

// contractSeed is the core.Options.Seed of a run's k-th contract; it drives
// the split, both sample draws and the estimator's parameter draws. From one
// contract seed to the next the sample size the search returns varies with
// a coefficient of variation of 0.2 and the iterations to convergence by a
// third, so a phase does not repeat one contract: its ops cycle over
// distinct ones, and a run's numbers describe their distribution, which is
// the same at every --seed.
func contractSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// distinct is how many different contracts a phase of n ops cycles over. The
// last eighth of the ops repeats the first contracts, which must come out
// bit-identical.
func distinct(n int) int { return max(1, n-n/8) }

// options is the core.Options of rung r for a run's k-th contract.
func (w *workload) options(r rung, seed int64, k int) core.Options {
	return core.Options{
		Epsilon:           r.epsilon,
		Delta:             0.05,
		InitialSampleSize: w.n0,
		MinSampleSize:     r.minN,
		Seed:              contractSeed(seed, k),
	}
}

// ops scales a reference op count to the requested run length.
func ops(ref, seconds int) int {
	return max(2, (ref*seconds+referenceSeconds/2)/referenceSeconds)
}

var workloads = []*workload{
	{
		name: "lr-lowdim-mem",
		why:  "search and optimizer do the work, statistics and store none: bypass workload for statistics/linalg/store changes, shows per-contract fixed overhead",

		generate: datagen.Higgs, rows: 200000, dim: 28,
		spec: models.LogisticRegression{Reg: 0.001}, n0: 2000,
		rungs:       []rung{{epsilon: 0.015, minN: 20000}},
		contractOps: 50, predictOps: 600, warmups: 3, predictRows: 20000,
	},
	{
		name: "me-stats-mem",
		why:  "max-entropy at d=400: covariance-side ObservedFisher (grad rows, outer products, eigensolve) is the largest phase and most of the allocation; early exit, so the optimizer does little",

		generate: datagen.MNIST, rows: 60000, dim: 40,
		spec: models.MaxEntropy{Classes: 10, Reg: 0.001}, n0: 2000,
		rungs:       []rung{{epsilon: 0.10}},
		contractOps: 24, predictOps: 150, warmups: 1, predictRows: 20000,
	},
	{
		name: "lr-sparse-store",
		why:  "the only workload on store ingest, CSR materialisation, sparse kernels and Gram-side Fisher (n0 < d); dense-only changes must not move it",

		generate: datagen.Criteo, rows: 50000, dim: 10000,
		spec: models.LogisticRegression{Reg: 0.001}, n0: 500,
		rungs:       []rung{{epsilon: 0.20, minN: 16000}},
		format:      "libsvm",
		contractOps: 24, predictOps: 300, warmups: 1, predictRows: 20000,
	},
	{
		name: "serve-ladder",
		why:  "same core/store layers from the wire: an epsilon ladder of four jobs on one uploaded dataset, registry writes beside predict reads, all that serve/modelio/obs add; a Plan cache should move only this",

		generate: datagen.Higgs, rows: 50000, dim: 28,
		spec: models.LogisticRegression{Reg: 0.001}, n0: 2000,
		rungs:       []rung{{epsilon: 0.20}, {epsilon: 0.08}, {epsilon: 0.015, minN: 16000}, {epsilon: 0.012, minN: 24000}},
		format:      "csv",
		contractOps: 22, predictOps: 3000, warmups: 1, predictRows: 64,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything the benchmark hands the program: generated from the
// seed before any clock starts, so generation and text serialisation are
// never part of setup_s.
type inputs struct {
	seed int64
	ds   *dataset.Dataset
	text []byte        // serialised dataset for the store / upload workloads
	rows []dataset.Row // the fixed slice every predict op scores
}

func (w *workload) inputs(seed int64) (*inputs, error) {
	population := w.generate(datagen.Config{Rows: w.rows * 5 / 4, Dim: w.dim, Seed: populationSeed})
	idx := dataset.SampleWithoutReplacement(stat.NewRNG(seed), population.Len(), w.rows)
	slices.Sort(idx) // the population's order: rows stay sequential in memory
	in := &inputs{seed: seed, ds: population.Subset(idx)}
	in.rows = in.ds.X[:min(w.predictRows, in.ds.Len())]
	var buf bytes.Buffer
	var err error
	switch w.format {
	case "libsvm":
		err = dataset.WriteLibSVM(&buf, in.ds)
	case "csv":
		err = dataset.WriteCSV(&buf, in.ds)
	}
	if err != nil {
		return nil, fmt.Errorf("serialise %s inputs: %w", w.name, err)
	}
	in.text = buf.Bytes()
	return in, nil
}
