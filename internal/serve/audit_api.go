package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"blinkml/internal/audit"
	"blinkml/internal/cluster"
	"blinkml/internal/modelio"
)

// taskReplayer runs an audit replay as one task through Server.run: the
// full-data training a replay needs is ordinary task work, in-process or on
// the fleet. Whoever runs it rebuilds the recorded environment (identical by
// split determinism) and ships back the realized difference plus the full
// model's bit fingerprint.
type taskReplayer struct{ s *Server }

// Replay implements audit.Replayer. A record keeps its dataset reference as
// submitted, so this is the one place besides admission that pins one.
func (r taskReplayer) Replay(ctx context.Context, rec audit.Record, m *modelio.Model) (audit.ReplayOutcome, error) {
	var ref DatasetRef
	if err := json.Unmarshal(rec.Dataset, &ref); err != nil {
		return audit.ReplayOutcome{}, fmt.Errorf("serve: decode audit dataset ref: %w", err)
	}
	if err := r.s.pinDataset(&ref); err != nil {
		return audit.ReplayOutcome{}, err
	}
	payload, err := r.s.run(ctx, cluster.TaskSpec{Kind: cluster.KindAudit, Audit: &cluster.AuditTask{
		Spec:    rec.Spec,
		Dataset: ref,
		Options: rec.Options,
		Theta:   m.Theta,
		Bound:   rec.EpsilonHat,
	}})
	if err != nil {
		return audit.ReplayOutcome{}, err
	}
	if payload.ReplayOutcome == nil {
		return audit.ReplayOutcome{}, errors.New("serve: audit task returned no outcome")
	}
	return *payload.ReplayOutcome, nil
}

// AuditReplayRequest is the body of POST /v1/audit/replay. Empty replays
// everything pending; ModelID targets one record (including re-replaying
// an errored or already-audited one); Max caps a bulk replay.
type AuditReplayRequest struct {
	ModelID string `json:"model_id,omitempty"`
	Max     int    `json:"max,omitempty"`
}

// AuditReplayResponse reports a replay request's outcome.
type AuditReplayResponse struct {
	Replayed int `json:"replayed"`
	// Entry is the joined record+replay when a single model was targeted.
	Entry *audit.Entry `json:"entry,omitempty"`
}

// handleAuditSummary serves GET /v1/audit: the per-family empirical
// coverage rollup.
func (s *Server) handleAuditSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.audit.Summary())
}

// handleAuditRecords serves GET /v1/audit/records: every calibration
// record joined with its replay, in append order.
func (s *Server) handleAuditRecords(w http.ResponseWriter, r *http.Request) {
	entries := s.audit.Entries()
	if entries == nil {
		entries = []audit.Entry{}
	}
	writeJSON(w, http.StatusOK, entries)
}

// handleAuditReplay serves POST /v1/audit/replay: run replays now,
// synchronously — the caller wants coverage numbers, so it waits for them.
func (s *Server) handleAuditReplay(w http.ResponseWriter, r *http.Request) {
	var req AuditReplayRequest
	if r.ContentLength != 0 && !s.readJSON(w, r, &req) {
		return
	}
	if req.ModelID != "" {
		if err := s.auditor.ReplayOne(r.Context(), req.ModelID); err != nil {
			writeError(w, http.StatusBadGateway, err)
			return
		}
		e, _ := s.audit.Get(req.ModelID)
		writeJSON(w, http.StatusOK, AuditReplayResponse{Replayed: 1, Entry: &e})
		return
	}
	n, err := s.auditor.ReplayPending(r.Context(), req.Max)
	if err != nil {
		// Partial progress still matters: report what completed alongside
		// the first failure.
		writeJSON(w, http.StatusBadGateway, struct {
			AuditReplayResponse
			Error string `json:"error"`
		}{AuditReplayResponse{Replayed: n}, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, AuditReplayResponse{Replayed: n})
}
