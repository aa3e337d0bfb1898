// Package modelio serializes trained BlinkML models to a versioned,
// round-trippable JSON format. A persisted model carries everything needed
// to reconstruct predictions byte-for-byte: the model class specification
// (including derived quantities such as PPCA's σ²), the flattened
// parameter vector θ, and the accuracy-contract metadata of the run that
// produced it. The format is what lets the serving layer's model registry
// survive restarts.
//
// Floating-point fidelity: Go's encoding/json emits the shortest decimal
// representation that round-trips each float64 exactly, so encode→decode
// reproduces θ bit-for-bit (non-finite parameters are rejected at encode
// time, as they are by training).
package modelio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// FormatName identifies the envelope; Version is bumped on incompatible
// layout changes so old registries fail loudly instead of silently
// misreading.
const (
	FormatName = "blinkml-model"
	Version    = 1
)

// Model is the one record of a trained model: spec, parameters θ, and the
// accuracy-contract metadata of the run that produced it. The coordinator's
// core.Result becomes a Model once (FromResult); the public API, the tuner,
// the cluster wire, the registry and the serving layer all pass this type.
// The JSON tags are the envelope's field layout (see Encode).
type Model struct {
	// Spec is the model class this model belongs to.
	Spec models.Spec `json:"-"`
	// Theta is the flattened parameter vector.
	Theta []float64 `json:"theta"`
	// Dim is the feature dimension; inferred from Spec+Theta if 0.
	Dim int `json:"dim"`
	// SampleSize is the number of training rows actually used.
	SampleSize int `json:"sample_size,omitempty"`
	// PoolSize is N, the rows the full model would have used.
	PoolSize int `json:"pool_size,omitempty"`
	// EstimatedEpsilon bounds v(m_n) with probability ≥ 1−δ (0 for a full
	// model).
	EstimatedEpsilon float64 `json:"estimated_epsilon,omitempty"`
	// UsedInitialModel reports whether the initial n₀-row model already met
	// the contract (§2.3: at most two models are ever trained).
	UsedInitialModel bool `json:"used_initial_model,omitempty"`
	// Diag breaks down where the time went (Figure 8a phases) and records
	// the estimator's decision trail.
	Diag      core.Diagnostics `json:"diag"`
	CreatedAt time.Time        `json:"created_at,omitzero"`
}

// FromResult records a coordinator result as a Model of spec trained on
// dim-dimensional data.
func FromResult(spec models.Spec, dim int, res *core.Result) *Model {
	return &Model{
		Spec:             spec,
		Theta:            res.Theta,
		Dim:              dim,
		SampleSize:       res.SampleSize,
		PoolSize:         res.PoolSize,
		EstimatedEpsilon: res.EstimatedEpsilon,
		UsedInitialModel: res.UsedInitialModel,
		Diag:             res.Diag,
	}
}

// Predict returns the model's prediction for x: a class index for
// classifiers, a real value for regressors.
func (m *Model) Predict(x dataset.Row) float64 { return m.Spec.Predict(m.Theta, x) }

// Accuracy returns the fraction of rows in ds the model labels correctly
// (classification tasks).
func (m *Model) Accuracy(ds *dataset.Dataset) float64 { return models.Accuracy(m.Spec, m.Theta, ds) }

// GeneralizationError returns the test error (misclassification rate or
// normalized RMSE).
func (m *Model) GeneralizationError(ds *dataset.Dataset) float64 {
	return models.GeneralizationError(m.Spec, m.Theta, ds)
}

// Diff returns the empirical model difference v between m and other on a
// holdout set (the metric the (ε, δ) contract bounds).
func (m *Model) Diff(other *Model, holdout *dataset.Dataset) float64 {
	return models.Diff(m.Spec, m.Theta, other.Theta, holdout)
}

// SpecJSON is the wire form of a model class specification. It doubles as
// the model selector in serving-layer train requests, which is why every
// field is optional with per-model defaults.
type SpecJSON struct {
	// Name is the model class: "linear", "logistic", "maxent", "poisson",
	// or "ppca".
	Name string `json:"name"`
	// Reg is the L2 coefficient β (GLM classes; default 0.001).
	Reg float64 `json:"reg,omitempty"`
	// Classes is the class count for maxent (0 = infer from the dataset).
	Classes int `json:"classes,omitempty"`
	// Factors is q for ppca (0 = the paper's default of 10).
	Factors int `json:"factors,omitempty"`
	// SigmaSq is ppca's derived noise variance; populated when encoding a
	// trained model, ignored in train requests.
	SigmaSq float64 `json:"sigma_sq,omitempty"`
}

// DefaultReg is applied when a train request leaves Reg unset (the paper's
// §5.1 default).
const DefaultReg = 0.001

// SpecToJSON converts a concrete spec to its wire form.
func SpecToJSON(s models.Spec) (SpecJSON, error) {
	switch m := s.(type) {
	case models.LinearRegression:
		return SpecJSON{Name: m.Name(), Reg: m.Reg}, nil
	case models.LogisticRegression:
		return SpecJSON{Name: m.Name(), Reg: m.Reg}, nil
	case models.MaxEntropy:
		return SpecJSON{Name: m.Name(), Reg: m.Reg, Classes: m.Classes}, nil
	case models.PoissonRegression:
		return SpecJSON{Name: m.Name(), Reg: m.Reg}, nil
	case *models.PPCA:
		return SpecJSON{Name: m.Name(), Factors: m.Factors, SigmaSq: m.SigmaSq()}, nil
	default:
		return SpecJSON{}, fmt.Errorf("modelio: unsupported spec type %T", s)
	}
}

// Spec reconstructs the concrete spec. Defaults are filled in (Reg for the
// GLM classes) so the same type also validates serving-layer requests.
func (sj SpecJSON) Spec() (models.Spec, error) {
	reg := sj.Reg
	if reg == 0 {
		reg = DefaultReg
	}
	if reg < 0 {
		return nil, fmt.Errorf("modelio: negative regularization %v", reg)
	}
	switch {
	case sj.Name == "":
		return nil, errors.New("modelio: missing model name")
	case sj.Name == "maxent" && sj.Classes < 0:
		return nil, fmt.Errorf("modelio: negative class count %d", sj.Classes)
	case sj.Name == "ppca" && sj.Factors < 0:
		return nil, fmt.Errorf("modelio: negative factor count %d", sj.Factors)
	}
	spec, err := models.New(sj.Name, reg, sj.Classes, sj.Factors)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	if p, ok := spec.(*models.PPCA); ok {
		p.RestoreSigmaSq(sj.SigmaSq)
	}
	return spec, nil
}

// envelope is the on-disk layout: the format header and the wire spec,
// followed by the Model's own tagged fields.
type envelope struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Spec    SpecJSON `json:"spec"`
	*Model
}

// checkTheta rejects parameter vectors that cannot have come from
// successful training (and would not survive JSON anyway).
func checkTheta(theta []float64) error {
	if len(theta) == 0 {
		return errors.New("modelio: empty parameter vector")
	}
	for i, v := range theta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("modelio: theta[%d] is not finite", i)
		}
	}
	return nil
}

// ErrShape is a θ that does not fit its spec at the model's dim — a
// non-positive dim, or a parameter count other than the spec's at that dim
// — which a prediction would read out of bounds or truncated.
var ErrShape = errors.New("modelio: parameters do not fit the model's dim")

// fitDim returns the feature dimension θ fits spec at: dim, or the one
// len(θ) implies when dim is 0 (the inverse of Spec.ParamDim). The count at
// a dim is dim times the count per feature — 1, the classes or the factors
// — which a max-entropy spec without a class count took from its training
// data, so any whole number of dim-rows fits it. No fit is an ErrShape.
func fitDim(spec models.Spec, dim int, theta []float64) (int, error) {
	per := spec.ParamDim(&dataset.Dataset{Dim: 1})
	if dim == 0 && per > 0 {
		dim = len(theta) / per
	}
	if per == 0 && dim > 0 {
		per = len(theta) / dim
	}
	if dim <= 0 || len(theta)%dim != 0 || len(theta)/dim != per {
		return 0, fmt.Errorf("%w: %d for a %s model of dim %d", ErrShape, len(theta), spec.Name(), dim)
	}
	return dim, nil
}

// Encode writes m to w. Non-finite parameters and a θ that does not fit the
// spec at m.Dim are rejected.
func Encode(w io.Writer, m *Model) error {
	if m == nil || m.Spec == nil {
		return errors.New("modelio: nil model or spec")
	}
	if err := checkTheta(m.Theta); err != nil {
		return err
	}
	sj, err := SpecToJSON(m.Spec)
	if err != nil {
		return err
	}
	rec := *m
	if rec.Dim, err = fitDim(m.Spec, m.Dim, m.Theta); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&envelope{Format: FormatName, Version: Version, Spec: sj, Model: &rec})
}

// Decode reads a model written by Encode, validating the envelope and
// reconstructing the concrete spec. A θ that does not fit the spec at the
// model's dim is an ErrShape.
func Decode(r io.Reader) (*Model, error) {
	env := envelope{Model: &Model{}}
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("modelio: decode: %w", err)
	}
	if env.Format != FormatName {
		return nil, fmt.Errorf("modelio: not a %s file (format %q)", FormatName, env.Format)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("modelio: unsupported version %d (have %d)", env.Version, Version)
	}
	m := env.Model
	var err error
	if m.Spec, err = env.Spec.Spec(); err != nil {
		return nil, err
	}
	if err := checkTheta(m.Theta); err != nil {
		return nil, err
	}
	if m.Dim, err = fitDim(m.Spec, m.Dim, m.Theta); err != nil {
		return nil, err
	}
	return m, nil
}
