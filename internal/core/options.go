// Package core implements BlinkML itself (paper §2.3–§4): the Coordinator
// workflow, the Model Accuracy Estimator, the Sample Size Estimator, and
// the three statistics-computation methods (ClosedForm, InverseGradients,
// ObservedFisher) that expose the Theorem-1 covariance α·H⁻¹JH⁻¹ as a
// sampling factor.
package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"blinkml/internal/optimize"
)

// Method selects how the H and J statistics of Theorem 1 are computed
// (paper §3.4).
type Method int

const (
	// ObservedFisher (the default) uses the information-matrix equality: J
	// is the second moment of the per-example gradients, and the factor
	// comes from an eigendecomposition of the smaller of the d x d
	// covariance (d ≤ n₀) and the n₀ x n₀ gradient Gram matrix (d > n₀). It
	// needs a single grads call.
	ObservedFisher Method = iota
	// InverseGradients estimates H column-by-column from finite differences
	// of the batch gradient (d+1 grads calls).
	InverseGradients
	// ClosedForm uses the model's analytic Hessian (models.Hessianer).
	ClosedForm
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ObservedFisher:
		return "ObservedFisher"
	case InverseGradients:
		return "InverseGradients"
	case ClosedForm:
		return "ClosedForm"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a BlinkML training run. Zero values fall back to the
// defaults noted per field (chosen as laptop-scaled versions of the paper's
// §5.1 setup).
//
// Options has exactly one JSON form (MarshalJSON below): the keys tagged
// here plus the optimizer's scalar fields flattened beside them. Cluster
// tasks and audit records carry it verbatim, so a worker or a replay sees
// every field that shapes θ or n — a new field needs a tag, nothing else.
type Options struct {
	// Epsilon is the requested error bound ε on the model difference
	// v(m_n): the approximate model disagrees with the full model on at
	// most an ε fraction of unseen examples. Required, in (0, 1].
	Epsilon float64 `json:"epsilon"`
	// Delta is the allowed probability of violating the bound (default
	// 0.05, i.e. 95% confidence — the paper's operating point).
	Delta float64 `json:"delta"`
	// InitialSampleSize is n₀, the size of the initial training sample
	// (default 2,000; the paper uses 10,000 at cluster scale). n₀ should be
	// comfortably above the parameter dimension: the Theorem-1 covariance is
	// itself estimated from the initial sample, and with n₀ ≲ d it is
	// rank-starved and optimistic — the same regime behind the paper's own
	// (LR, Criteo, 99%) miss in Table 5.
	InitialSampleSize int `json:"initial_sample_size"`
	// K is the number of Monte-Carlo parameter samples used by both
	// estimators (default 100).
	K int `json:"k"`
	// Method picks the statistics computation (default ObservedFisher).
	Method Method `json:"method"`
	// Seed drives every random choice (splits, samples, parameter draws).
	Seed int64 `json:"seed"`
	// HoldoutFraction of the data is reserved for diff() (default 0.1),
	// capped at MaxHoldout rows (default 2,000).
	HoldoutFraction float64 `json:"holdout_fraction"`
	MaxHoldout      int     `json:"max_holdout"`
	// TestFraction is carved out for generalization-error reporting
	// (default 0, i.e. no test set; experiments set it explicitly).
	TestFraction float64 `json:"test_fraction,omitempty"`
	// Optimizer configures the solver (BFGS for d < 100, else L-BFGS).
	Optimizer optimize.Options `json:"-"`
	// FDStep is the finite-difference step of InverseGradients (default
	// 1e-6, the paper's ϵ).
	FDStep float64 `json:"fd_step,omitempty"`
	// SVDRelTol drops trailing singular values in ObservedFisher (default
	// 1e-8 relative to the largest).
	SVDRelTol float64 `json:"svd_rel_tol,omitempty"`
	// WarmStart reuses the initial model's parameters to start the final
	// training (off by default so iteration counts stay comparable to full
	// training, as in Figure 8c).
	WarmStart bool `json:"warm_start,omitempty"`
	// VarianceInflation scales every sampled parameter deviation by
	// (1 + VarianceInflation). This is footnote 2 of the paper (error terms
	// compensating a not-fully-converged or noisily estimated J) exposed as
	// a knob: use it for extra conservatism when n₀ is not ≫ d. Default 0,
	// the paper's behaviour.
	VarianceInflation float64 `json:"variance_inflation,omitempty"`
	// MinSampleSize floors the sample-size search (default n₀).
	MinSampleSize int `json:"min_sample_size,omitempty"`
}

// optionsFields is Options without its methods, so the JSON methods below
// can hand the struct to encoding/json without recursing into themselves.
type optionsFields Options

// optionsWire is the one wire form of Options: its own tagged fields with
// the optimizer's (max_iters, grad_tol, …) flattened beside them. The
// optimizer's callbacks do not travel.
type optionsWire struct {
	*optionsFields
	*optimize.Options
}

func (o *Options) wire() optionsWire { return optionsWire{(*optionsFields)(o), &o.Optimizer} }

// MarshalJSON writes the wire form.
func (o Options) MarshalJSON() ([]byte, error) { return json.Marshal(o.wire()) }

// UnmarshalJSON reads the wire form. Absent keys leave their fields
// untouched, so an older record decodes to zeros that WithDefaults resolves
// as it did when the record was written.
func (o *Options) UnmarshalJSON(b []byte) error {
	w := o.wire()
	return json.Unmarshal(b, &w)
}

// WithDefaults returns a copy of o with zero fields replaced by the
// documented defaults. Training applies it automatically; callers driving
// the estimators directly (baselines, experiments) apply it themselves.
func (o Options) WithDefaults() Options {
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	if o.InitialSampleSize <= 0 {
		o.InitialSampleSize = 2000
	}
	if o.K <= 0 {
		o.K = 100
	}
	if o.HoldoutFraction <= 0 {
		o.HoldoutFraction = 0.1
	}
	if o.MaxHoldout <= 0 {
		o.MaxHoldout = 2000
	}
	if o.FDStep <= 0 {
		o.FDStep = 1e-6
	}
	if o.SVDRelTol <= 0 {
		o.SVDRelTol = 1e-8
	}
	if o.MinSampleSize <= 0 {
		o.MinSampleSize = o.InitialSampleSize
	}
	return o
}

// validate checks a contract's options (defaults applied). Every test is
// written as "not inside the range" so that a NaN, which compares false with
// everything, is rejected too.
func (o Options) validate() error {
	if !(o.Epsilon > 0 && o.Epsilon <= 1) {
		return fmt.Errorf("core: Epsilon must be in (0,1], got %v", o.Epsilon)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("core: Delta must be in (0,1), got %v", o.Delta)
	}
	return o.validateSplit()
}

// validateSplit checks the fractions NewEnvFromSource splits by, which is
// reached without a contract (and so without validate) by the tune
// subsystem and the public NewEnv constructors.
func (o Options) validateSplit() error {
	if !(o.HoldoutFraction < 1) {
		return fmt.Errorf("core: HoldoutFraction must be below 1, got %v", o.HoldoutFraction)
	}
	if !(o.TestFraction >= 0 && o.TestFraction < 1) {
		return fmt.Errorf("core: TestFraction must be in [0,1), got %v", o.TestFraction)
	}
	return nil
}

// ErrNoHessian is returned when ClosedForm is requested for a model that
// does not implement models.Hessianer.
var ErrNoHessian = errors.New("core: model has no closed-form Hessian; use ObservedFisher or InverseGradients")

// ErrNonFiniteFisher is returned by the statistics phase when the
// information matrix it must eigendecompose has an infinite or NaN entry —
// typically per-example gradients whose products overflow, from features
// of extreme magnitude.
var ErrNonFiniteFisher = errors.New("core: non-finite Fisher information")
