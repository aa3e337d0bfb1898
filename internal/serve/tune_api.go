package serve

// Wire types for POST /v1/tune: a hyperparameter search runs through the
// same async job queue as training (pollable via GET /v1/jobs/{id},
// cancellable via DELETE /v1/jobs/{id}); on success the winning model is
// registered in the persistent registry like any trained model, and the job
// status carries the ranked leaderboard.

import (
	"errors"
	"fmt"

	"blinkml/internal/modelio"
	"blinkml/internal/tune"
)

// TuneRequest is the body of POST /v1/tune: a candidate space, a dataset
// reference, and the (ε, δ) contract every surviving candidate is trained
// under.
type TuneRequest struct {
	Space   SpaceJSON  `json:"space"`
	Dataset DatasetRef `json:"dataset"`
	// Epsilon is the requested error bound ε in (0, 1].
	Epsilon float64 `json:"epsilon"`
	// Delta is the allowed violation probability δ (default 0.05).
	Delta   float64     `json:"delta,omitempty"`
	Options TuneOptions `json:"options,omitzero"`
}

// SpaceJSON is the wire form of tune.Space: an explicit grid of model
// specs, a random sampler, or both.
type SpaceJSON struct {
	Grid   []modelio.SpecJSON `json:"grid,omitempty"`
	Random *tune.RandomSpace  `json:"random,omitempty"`
}

// TuneOptions exposes the search knobs that make sense per-request.
type TuneOptions struct {
	Seed              int64 `json:"seed,omitempty"`
	Workers           int   `json:"workers,omitempty"`
	Halving           bool  `json:"halving,omitempty"`
	Rungs             int   `json:"rungs,omitempty"`
	Eta               int   `json:"eta,omitempty"`
	InitialSampleSize int   `json:"initial_sample_size,omitempty"`
	MaxIters          int   `json:"max_iters,omitempty"`
	// TestFraction carves a test split for the leaderboard metric (default
	// 0.15).
	TestFraction float64 `json:"test_fraction,omitempty"`
}

// Space converts the wire space to the library form.
func (s SpaceJSON) Space() (tune.Space, error) {
	out := tune.Space{Random: s.Random}
	for i, sj := range s.Grid {
		spec, err := sj.Spec()
		if err != nil {
			return tune.Space{}, fmt.Errorf("serve: grid candidate %d: %w", i, err)
		}
		out.Grid = append(out.Grid, spec)
	}
	return out, nil
}

// Validate checks the request before it is admitted to the queue.
func (r *TuneRequest) Validate() error {
	space, err := r.Space.Space()
	if err != nil {
		return err
	}
	if err := space.Validate(); err != nil {
		return err
	}
	if r.Epsilon <= 0 || r.Epsilon > 1 {
		return fmt.Errorf("serve: epsilon must be in (0,1], got %v", r.Epsilon)
	}
	if r.Delta < 0 || r.Delta >= 1 {
		return fmt.Errorf("serve: delta must be in [0,1), got %v", r.Delta)
	}
	if o := r.Options; o.Rungs < 0 || o.Eta < 0 || o.Workers < 0 {
		return errors.New("serve: tune options must be non-negative")
	}
	if tf := r.Options.TestFraction; tf < 0 || tf >= 1 {
		return fmt.Errorf("serve: test_fraction must be in [0,1), got %v", tf)
	}
	return r.Dataset.Validate()
}
