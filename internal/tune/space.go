// Package tune implements hyperparameter search over BlinkML model class
// specifications — the paper's §5.7 scenario (Figure 10) as a first-class
// subsystem instead of a hand-rolled loop. A search evaluates many
// candidate specs over one shared core.Env (a single train/holdout/test
// split, so comparisons are apples-to-apples and data preparation is paid
// once), runs candidates on a bounded worker pool under context
// cancellation, and returns a ranked leaderboard plus the winning model
// trained under the requested (ε, δ) contract.
//
// Three search strategies are supported and compose:
//
//   - grid search: every spec in Space.Grid is evaluated as-is;
//   - random search: Space.Random draws seeded candidates, log-uniform over
//     regularization (the knob that matters for the paper's GLMs) and
//     uniform over PPCA's integer factor count;
//   - successive halving (Config.Halving): candidates first train cheaply on
//     small shared subsamples of the pool, the worst 1−1/Eta are pruned each
//     rung, sample sizes grow geometrically, and only the survivors of the
//     last rung are trained under the full BlinkML contract. Rung samples
//     come from Env.SharedSample, so they are nested (warm starts are
//     honest) and shared across candidates and rungs (one growing prefix:
//     a rung materializes only the rows beyond the previous one).
package tune

import (
	"errors"
	"fmt"
	"math"

	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// Candidate is one point of the search space.
type Candidate struct {
	// Spec is the model class specification to evaluate.
	Spec models.Spec
	// Origin records how the candidate was produced ("grid" or "random").
	Origin string
}

// Space is the candidate set: an explicit grid, a seeded random sampler, or
// both (grid candidates come first).
type Space struct {
	// Grid lists explicit specs, evaluated as-is.
	Grid []models.Spec
	// Random, when set, draws additional candidates from parameter ranges.
	Random *RandomSpace
}

// RandomSpace draws candidates of one model family from seeded parameter
// ranges. The tags are its form in a POST /v1/tune body.
type RandomSpace struct {
	// Model is the family: "linear", "logistic", "poisson", "maxent", or
	// "ppca".
	Model string `json:"model"`
	// N is how many candidates to draw (default 10).
	N int `json:"candidates,omitempty"`
	// RegMin/RegMax bound the log-uniform draw of the L2 coefficient for the
	// GLM families (default [1e-6, 1]).
	RegMin float64 `json:"reg_min,omitempty"`
	RegMax float64 `json:"reg_max,omitempty"`
	// Classes is K for maxent (0 = infer from the dataset).
	Classes int `json:"classes,omitempty"`
	// FactorsMin/FactorsMax bound the uniform integer draw of PPCA's factor
	// count (default [2, 10]).
	FactorsMin int `json:"factors_min,omitempty"`
	FactorsMax int `json:"factors_max,omitempty"`
}

// Validate checks the space before a search is admitted.
func (s Space) Validate() error {
	if len(s.Grid) == 0 && s.Random == nil {
		return errors.New("tune: empty search space (set Grid or Random)")
	}
	for i, spec := range s.Grid {
		if spec == nil {
			return fmt.Errorf("tune: grid candidate %d is nil", i)
		}
	}
	if s.Random != nil {
		return s.Random.validate()
	}
	return nil
}

func (r *RandomSpace) validate() error {
	switch r.Model {
	case "linear", "logistic", "poisson", "maxent", "ppca":
	case "":
		return errors.New("tune: random space needs a model family")
	default:
		return fmt.Errorf("tune: unknown model family %q (want linear|logistic|maxent|poisson|ppca)", r.Model)
	}
	if r.N < 0 {
		return fmt.Errorf("tune: negative candidate count %d", r.N)
	}
	lo, hi := r.regRange()
	if lo <= 0 || hi <= 0 || lo > hi {
		return fmt.Errorf("tune: bad regularization range [%v, %v] (want 0 < min <= max)", lo, hi)
	}
	if fLo, fHi := r.factorRange(); fLo < 1 || fLo > fHi {
		return fmt.Errorf("tune: bad factor range [%d, %d] (want 1 <= min <= max)", fLo, fHi)
	}
	return nil
}

// regRange fills unset bounds from the documented default [1e-6, 1], so
// setting only RegMax keeps the default lower bound (and vice versa). An
// explicitly inverted range is left for validate to reject.
func (r *RandomSpace) regRange() (lo, hi float64) {
	lo, hi = r.RegMin, r.RegMax
	if lo == 0 {
		lo = 1e-6
	}
	if hi == 0 {
		hi = 1
		if lo > hi {
			hi = lo
		}
	}
	return lo, hi
}

// factorRange fills unset bounds from the default [2, 10]; a FactorsMin
// above the default upper bound raises it so a single lower bound stays
// valid.
func (r *RandomSpace) factorRange() (lo, hi int) {
	lo, hi = r.FactorsMin, r.FactorsMax
	if lo == 0 {
		lo = 2
	}
	if hi == 0 {
		hi = 10
		if lo > hi {
			hi = lo
		}
	}
	return lo, hi
}

// Candidates enumerates the space deterministically in seed: the grid
// first, then the random draws.
func (s Space) Candidates(seed int64) ([]Candidate, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]Candidate, 0, len(s.Grid))
	for _, spec := range s.Grid {
		out = append(out, Candidate{Spec: spec, Origin: "grid"})
	}
	if s.Random != nil {
		out = append(out, s.Random.draw(seed)...)
	}
	if len(out) == 0 {
		return nil, errors.New("tune: search space produced no candidates")
	}
	return out, nil
}

func (r *RandomSpace) draw(seed int64) []Candidate {
	n := r.N
	if n <= 0 {
		n = 10
	}
	rng := stat.NewRNG(seed + 0x7E57)
	regLo, regHi := r.regRange()
	fLo, fHi := r.factorRange()
	out := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		// Each family draws only the knob it has, so the random stream is
		// consumed exactly once per candidate.
		var reg float64
		var factors int
		if r.Model == "ppca" {
			factors = fLo + rng.Intn(fHi-fLo+1)
		} else {
			reg = logUniform(rng, regLo, regHi)
		}
		spec, err := models.New(r.Model, reg, r.Classes, factors)
		if err != nil {
			panic("tune: draw on an unvalidated space: " + err.Error())
		}
		out = append(out, Candidate{Spec: spec, Origin: "random"})
	}
	return out
}

// logUniform draws from [lo, hi] uniformly in log space — the standard
// sampler for scale-free knobs like regularization strength.
func logUniform(rng *stat.RNG, lo, hi float64) float64 {
	if lo == hi {
		return lo
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	return math.Exp(llo + (lhi-llo)*rng.Float64())
}
