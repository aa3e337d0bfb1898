// Package audit is the guarantee-calibration plane: every train/tune job
// appends a durable record of the (ε, δ) contract it promised and the
// decision it made (sample size, ε̂, model family, dataset fingerprint),
// and an opt-in auditor later replays completed jobs — training the
// full-data model the guarantee was stated against — to measure the
// realized model difference v(m_n). Aggregating replays per model family
// yields the empirical coverage Pr[v ≤ ε̂], the number the paper's
// probabilistic contract says must be at least 1−δ.
package audit

import (
	"encoding/json"
	"fmt"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
)

// Record is the durable calibration record appended when a job registers a
// model: the contract, the decision, and everything a replay needs to
// reconstruct the environment. Dataset is the job's dataset reference —
// cluster.DatasetRef's JSON, as the request submitted it; a replay pins it
// to the stored bytes again — held as raw bytes because cluster imports this
// package (for ReplayOutcome), not the other way round. Fingerprint is the
// admitted reference's Key, identifying the bytes it named.
type Record struct {
	ModelID string `json:"model_id"`
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Kind is "train" or "tune".
	Kind   string `json:"kind"`
	Family string `json:"family"`
	// Spec round-trips the winning model's hyperparameters.
	Spec        modelio.SpecJSON `json:"spec"`
	Dataset     json.RawMessage  `json:"dataset,omitempty"`
	Fingerprint string           `json:"fingerprint,omitempty"`
	// Contract: the requested bound and confidence, and the Monte-Carlo
	// budget K the estimate was computed with.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	K       int     `json:"k"`
	// Decision: the chosen sample size n out of pool N, the estimated
	// bound ε̂ the model shipped with, and the first-stage ε₀.
	SampleSize       int     `json:"sample_size"`
	PoolSize         int     `json:"pool_size"`
	EpsilonHat       float64 `json:"epsilon_hat"`
	InitialEpsilon   float64 `json:"initial_epsilon,omitempty"`
	UsedInitialModel bool    `json:"used_initial_model,omitempty"`
	// Options is the core.Options the job trained with, in their one JSON
	// form and captured after WithDefaults, so a replay rebuilds the
	// identical environment (split seeds, holdout size, optimizer budget)
	// even if the server's defaults change later.
	Options   core.Options `json:"options"`
	CreatedAt time.Time    `json:"created_at"`
	// Resources is the job's resource-attribution ledger at registration
	// time (CPU self-time, kernel flops, rows/bytes materialized) — what the
	// guarantee cost to produce.
	Resources *obs.LedgerSnapshot `json:"resources,omitempty"`
}

// ReplayOutcome is what replaying one record measures, wherever the replay
// ran: it is embedded in the task result an audit task ships back and in the
// Replay line the log keeps, so the keys below are both wire forms.
type ReplayOutcome struct {
	// Realized is v(m_n, m_N) on the recorded holdout split.
	Realized float64 `json:"realized"`
	// EpsilonHat echoes the record's bound so a replay line is
	// self-contained in exports.
	EpsilonHat float64 `json:"epsilon_hat"`
	// Satisfied reports Realized ≤ EpsilonHat — one Bernoulli draw of the
	// coverage probability the contract promises is ≥ 1−δ.
	Satisfied bool `json:"satisfied"`
	FullIters int  `json:"full_iters,omitempty"`
	// FullThetaFNV is the hex FNV-1a fingerprint of the full model's
	// parameter bits — the determinism witness: a second replay (or a
	// direct training at the same seed and parallelism) must reproduce it
	// exactly.
	FullThetaFNV string `json:"full_theta_fnv,omitempty"`
}

// NewReplayOutcome records a guarantee check against a freshly trained full
// model (core.ReplayGuarantee's report) as a replay outcome.
func NewReplayOutcome(rep core.GuaranteeReport) ReplayOutcome {
	return ReplayOutcome{
		Realized:     rep.Realized,
		EpsilonHat:   rep.Bound,
		Satisfied:    rep.Satisfied,
		FullIters:    rep.FullIters,
		FullThetaFNV: fmt.Sprintf("%016x", core.ThetaFingerprint(rep.FullTheta)),
	}
}

// Replay is the realized outcome of auditing one record: the full-data
// model was trained at the recorded options and compared against the
// approximate model the job shipped.
type Replay struct {
	ModelID string `json:"model_id"`
	ReplayOutcome
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Error is set when the replay itself failed (dataset gone, training
	// diverged); failed replays count toward failures, never coverage.
	Error      string    `json:"error,omitempty"`
	ReplayedAt time.Time `json:"replayed_at"`
}
