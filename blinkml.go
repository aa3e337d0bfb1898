// Package blinkml is a Go implementation of BlinkML (Park, Qing, Shen,
// Mozafari — SIGMOD 2019): fast, quality-guaranteed training for maximum-
// likelihood models. Instead of training on the full dataset, BlinkML
// trains on an automatically sized uniform sample and guarantees — with
// probability at least 1−δ — that the returned model's predictions differ
// from the (never trained) full model's predictions on at most an ε
// fraction of unseen examples:
//
//	Pr[ v(m_n) ≤ ε ] ≥ 1−δ,  v(m_n) = E_x 1{m_n(x) ≠ m_N(x)}
//
// Basic use mirrors Figure 1 of the paper — a traditional fit call plus an
// accuracy contract:
//
//	model, err := blinkml.Train(
//		blinkml.LogisticRegression(0.001),
//		data,
//		blinkml.Config{Epsilon: 0.05, Delta: 0.05}, // "95% accurate, 95% confident"
//	)
//
// Supported model classes: linear regression, logistic regression,
// max-entropy (softmax) classification, Poisson regression, and PPCA —
// i.e., MLE-based models (§2.2). The heavy lifting lives in internal/core
// (estimators, three statistics-computation methods), internal/models
// (model class specifications), internal/optimize (BFGS/L-BFGS) and
// internal/linalg (from-scratch dense linear algebra).
package blinkml

import (
	"context"
	"io"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/tune"
)

// Re-exported data model: a Dataset holds rows (dense or sparse) and
// labels; see the dataset package docs for construction helpers.
type (
	// Dataset is an in-memory labeled dataset.
	Dataset = dataset.Dataset
	// Row is one feature vector (dense or sparse).
	Row = dataset.Row
	// DenseRow is a dense feature vector.
	DenseRow = dataset.DenseRow
	// SparseRow is a compressed sparse feature vector.
	SparseRow = dataset.SparseRow
	// Task tags label semantics.
	Task = dataset.Task
)

// Task values.
const (
	Regression           = dataset.Regression
	BinaryClassification = dataset.BinaryClassification
	MultiClassification  = dataset.MultiClassification
	Unsupervised         = dataset.Unsupervised
)

// NewSparseRow builds a sparse row; indices must be strictly increasing.
func NewSparseRow(dim int, idx []int32, val []float64) (*SparseRow, error) {
	return dataset.NewSparseRow(dim, idx, val)
}

// Config is the approximation contract plus tuning knobs; Epsilon and Delta
// form the (ε, δ) contract of §2.1 and everything else has sensible
// defaults. It is an alias of the core options type — see core.Options for
// per-field documentation.
type Config = core.Options

// Statistics-computation method selectors (§3.4).
const (
	ObservedFisher   = core.ObservedFisher
	InverseGradients = core.InverseGradients
	ClosedForm       = core.ClosedForm
)

// ModelSpec identifies a model class (a model class specification in the
// paper's terms).
type ModelSpec = models.Spec

// LinearRegression returns the L2-regularized Gaussian-MLE linear model
// ("Lin"; the paper's default reg is 0.001).
func LinearRegression(reg float64) ModelSpec { return models.LinearRegression{Reg: reg} }

// LogisticRegression returns the L2-regularized binary classifier ("LR").
func LogisticRegression(reg float64) ModelSpec { return models.LogisticRegression{Reg: reg} }

// MaxEntropy returns the K-class softmax classifier ("ME").
func MaxEntropy(classes int, reg float64) ModelSpec {
	return models.MaxEntropy{Classes: classes, Reg: reg}
}

// PoissonRegression returns the log-link Poisson GLM.
func PoissonRegression(reg float64) ModelSpec { return models.PoissonRegression{Reg: reg} }

// PPCA returns probabilistic PCA with q factors (the paper's default q is
// 10).
func PPCA(factors int) ModelSpec { return models.NewPPCA(factors) }

// Model is a trained (approximate or full) model: spec, parameters θ, the
// data dimension, and the accuracy contract it was trained under
// (SampleSize of PoolSize rows, EstimatedEpsilon, UsedInitialModel, the
// phase diagnostics), with Predict, Accuracy, GeneralizationError and Diff
// methods. It is the same record the registry persists and the serving
// layer answers from — see modelio.Model for per-field documentation.
type Model = modelio.Model

// EncodeModel writes m to w in the versioned blinkml-model JSON format:
// spec (including derived quantities such as PPCA's σ²), parameters, and
// contract metadata round-trip exactly, so a decoded model predicts
// identically. This is the format the serving layer's registry persists.
func EncodeModel(w io.Writer, m *Model) error { return modelio.Encode(w, m) }

// DecodeModel reads a model written by EncodeModel.
func DecodeModel(r io.Reader) (*Model, error) { return modelio.Decode(r) }

// Train runs the BlinkML workflow: train an initial model on a small
// sample, estimate its accuracy against the unknown full model, and — only
// if needed — train one more model on an automatically sized sample that
// meets the (ε, δ) contract.
func Train(spec ModelSpec, ds *Dataset, cfg Config) (*Model, error) {
	return TrainSource(context.Background(), spec, ds, cfg)
}

// TrainFull trains on the entire training pool — the traditional path
// BlinkML is compared against. It uses the same train/holdout split as
// Train with the same Config, so Diff between the two models estimates the
// realized v.
func TrainFull(spec ModelSpec, ds *Dataset, cfg Config) (*Model, error) {
	cfg = cfg.WithDefaults()
	env := core.NewEnv(ds, cfg)
	res, err := env.TrainFull(spec, cfg.Optimizer)
	if err != nil {
		return nil, err
	}
	return &Model{
		Spec:       spec,
		Theta:      res.Theta,
		Dim:        ds.Dim,
		SampleSize: env.PoolLen(),
		PoolSize:   env.PoolLen(),
	}, nil
}

// Hyperparameter search (the paper's §5.7 scenario as a subsystem): a
// TuneSpace names candidate model specs — an explicit grid, seeded random
// draws over regularization and similar knobs, or both — and Tune evaluates
// them concurrently over one shared train/holdout/test split, optionally
// with successive-halving early pruning. See the tune package docs.
type (
	// TuneSpace is the candidate space (grid and/or random draws).
	TuneSpace = tune.Space
	// TuneRandomSpace draws seeded candidates from parameter ranges
	// (log-uniform over regularization, uniform over PPCA factors).
	TuneRandomSpace = tune.RandomSpace
	// TuneConfig sizes a search: per-candidate contract, worker pool, and
	// successive-halving knobs.
	TuneConfig = tune.Config
	// TuneEntry is one ranked leaderboard row.
	TuneEntry = tune.Entry
	// TuneResult pairs the winning contract-trained model (Best, trained
	// under the requested (ε, δ) contract, so its ranking transfers to full
	// training with high probability) with the ranked Leaderboard of every
	// candidate evaluated, the Evaluated / Pruned counts, the shared
	// PoolSize and the search's Elapsed time. It encodes as the "tune" object
	// of a served tune job.
	TuneResult = tune.Result
)

// Tune searches space over src — an in-memory *Dataset or any other
// DataSource, in which case the whole search (rung subsamples and contract
// trainings) materializes only the rows it touches. Every candidate trains
// on the same shared split under cfg.Train's (ε, δ) contract, on a bounded
// worker pool, with optional successive-halving pruning (cfg.Halving).
// Cancelling ctx stops the search promptly — queued candidates are never
// started and running ones stop between optimizer iterations.
func Tune(ctx context.Context, space TuneSpace, src DataSource, cfg TuneConfig) (*TuneResult, error) {
	return tune.RunSource(ctx, space, src, cfg)
}

// Env exposes the shared train/holdout/test split for workflows that
// compare approximate and full models on identical data (as the paper's
// evaluation does).
type Env = core.Env

// NewEnv prepares a split environment; TrainApproxContext/TrainFull on the
// same Env are directly comparable.
func NewEnv(ds *Dataset, cfg Config) *Env { return core.NewEnv(ds, cfg) }

// DataSource is random access to rows that may live out of memory: an
// in-memory *Dataset is one, and so are the persistent dataset store's
// handles (internal/store). Training against a store-backed source
// materializes only the sampled rows plus the holdout — O(n) memory for an
// N-row dataset.
type DataSource = dataset.Source

// DataMeta describes a source's shape without touching its rows.
type DataMeta = dataset.Meta

// NewEnvFromSource prepares a split environment over any source. At the
// same seed it draws the same split and samples as NewEnv over the same
// rows, so store-backed and in-memory training agree exactly.
func NewEnvFromSource(src DataSource, cfg Config) (*Env, error) {
	return core.NewEnvFromSource(src, cfg)
}

// TrainSource is Train over any DataSource, with cancellation: ctx is
// checked at every phase boundary and between optimizer iterations, so
// cancelling it stops the training promptly with ctx.Err() (wrapped). This
// is what makes killed server-side training jobs cheap.
func TrainSource(ctx context.Context, spec ModelSpec, src DataSource, cfg Config) (*Model, error) {
	res, err := core.TrainSourceContext(ctx, spec, src, cfg)
	if err != nil {
		return nil, err
	}
	return modelio.FromResult(spec, src.Meta().Dim, res), nil
}

// SyntheticDataset generates one of the paper-shaped synthetic workloads:
// "gas", "power" (regression), "criteo", "higgs" (binary), "mnist", "yelp"
// (multiclass), or "counts" (Poisson). rows/dim of 0 use per-dataset
// defaults.
func SyntheticDataset(name string, rows, dim int, seed int64) (*Dataset, error) {
	return datagen.Generate(name, datagen.Config{Rows: rows, Dim: dim, Seed: seed})
}

// SyntheticSparseDataset is SyntheticDataset with an explicit stored-entry
// count per row for the sparse generators ("onehot"); nnz 0 uses the
// generator default, and dense generators ignore it.
func SyntheticSparseDataset(name string, rows, dim, nnz int, seed int64) (*Dataset, error) {
	return datagen.Generate(name, datagen.Config{Rows: rows, Dim: dim, NNZ: nnz, Seed: seed})
}

// ReadCSV loads a dense labeled dataset from CSV (label in labelCol;
// negative counts from the end). A non-numeric first line is treated as a
// header. An input with no rows, or whose rows hold only the label, is an
// error.
func ReadCSV(r io.Reader, labelCol int, task Task) (*Dataset, error) {
	return dataset.ReadCSV(r, labelCol, task)
}

// WriteCSV writes ds as CSV with the label in the last column.
func WriteCSV(w io.Writer, ds *Dataset) error { return dataset.WriteCSV(w, ds) }

// ReadLibSVM loads a sparse dataset in LibSVM/SVMlight format (dim 0
// infers the dimension from the data).
func ReadLibSVM(r io.Reader, dim int, task Task) (*Dataset, error) {
	return dataset.ReadLibSVM(r, dim, task)
}

// WriteLibSVM writes ds in LibSVM format.
func WriteLibSVM(w io.Writer, ds *Dataset) error { return dataset.WriteLibSVM(w, ds) }
