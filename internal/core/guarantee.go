package core

// The guarantee check — does a trained approximation actually sit within
// its promised ε of the full-data model? — used to live only inside
// estimator_test.go. It is exported here so the test and the runtime audit
// plane (internal/audit) validate the contract through one code path and
// cannot drift apart.

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"

	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
)

// GuaranteeReport is the outcome of validating one (ε, δ) training result
// against the ground-truth full-data model.
type GuaranteeReport struct {
	// Realized is v(m_n, m_N): the observed model difference on the holdout.
	Realized float64
	// Bound is the ε̂ the result promised (Result.EstimatedEpsilon).
	Bound float64
	// Satisfied reports Realized ≤ Bound — the event the contract says
	// happens with probability ≥ 1−δ.
	Satisfied bool
	// FullTheta is the full-data model's parameters (set by
	// ValidateGuarantee; nil from CheckGuarantee, whose caller already has
	// them).
	FullTheta []float64
	// FullIters is the full training's iteration count (ValidateGuarantee).
	FullIters int
}

// CheckGuarantee compares an approximate model against an already-trained
// full model: Realized is models.Diff on the holdout, Satisfied whether it
// stays within bound. Callers that amortize one full training across many
// approximate models (the estimator test) use this form directly.
func CheckGuarantee(spec models.Spec, approxTheta, fullTheta []float64, bound float64, holdout *dataset.Dataset) GuaranteeReport {
	realized := models.Diff(spec, approxTheta, fullTheta, holdout)
	return GuaranteeReport{
		Realized:  realized,
		Bound:     bound,
		Satisfied: realized <= bound,
	}
}

// ValidateGuarantee trains the full-data model inside env and checks res
// against it. Training is deterministic in the environment's split and the
// optimizer options, so — per the cluster layer's determinism contract —
// replaying a recorded job through this function at the same seed and
// compute parallelism reproduces the full model bit for bit, which
// ThetaFingerprint makes checkable without storing N parameters.
func ValidateGuarantee(env *Env, spec models.Spec, res *Result, optim optimize.Options) (GuaranteeReport, error) {
	if env == nil || res == nil {
		return GuaranteeReport{}, errors.New("core: ValidateGuarantee needs an environment and a result")
	}
	if len(res.Theta) == 0 {
		return GuaranteeReport{}, errors.New("core: ValidateGuarantee needs the approximate model's parameters")
	}
	full, err := env.TrainFull(spec, optim)
	if err != nil {
		return GuaranteeReport{}, err
	}
	rep := CheckGuarantee(spec, res.Theta, full.Theta, res.EstimatedEpsilon, env.Holdout())
	rep.FullTheta = full.Theta
	rep.FullIters = full.Iters
	return rep, nil
}

// ReplayGuarantee is the audit replay, local or on a cluster worker: split
// src under the options the job recorded, train the full-data model there
// with the recorded optimizer budget (cancellable through ctx), and check
// theta against it at bound.
func ReplayGuarantee(ctx context.Context, src dataset.Source, spec models.Spec, theta []float64, bound float64, opt Options) (GuaranteeReport, error) {
	env, err := NewEnvFromSource(src, opt)
	if err != nil {
		return GuaranteeReport{}, err
	}
	return ValidateGuarantee(env, spec, &Result{Theta: theta, EstimatedEpsilon: bound}, WithCancel(ctx, opt.Optimizer))
}

// ThetaFingerprint hashes a parameter vector's exact bit pattern (FNV-1a
// over the float64 bits). Equal fingerprints across a replay and a direct
// training are the audit plane's bit-identity witness.
func ThetaFingerprint(theta []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range theta {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
