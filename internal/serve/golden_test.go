package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blinkml/internal/audit"
	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/optimize"
	"blinkml/internal/tune"
)

// TestLoadsFilesWrittenBeforeOptionsMoved opens a registry file and an
// audit log written by the commit before core.Options gained its own JSON
// form and modelio.Model its envelope tags (testdata/pr16: one logistic job
// on synthetic higgs at compute degree 1, recorded and replayed there). The
// model must decode to the same record and re-encode to the same bytes, the
// record's options must decode to what that job trained with, and replaying
// the record here must reproduce that commit's full-model fingerprint.
func TestLoadsFilesWrittenBeforeOptionsMoved(t *testing.T) {
	dir := t.TempDir()
	modelFile, err := os.ReadFile(filepath.Join("testdata", "pr16", "m-000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	auditFile, err := os.ReadFile(filepath.Join("testdata", "pr16", "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m-000001.json"), modelFile, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "audit"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "audit", "audit.jsonl"), auditFile, 0o644); err != nil {
		t.Fatal(err)
	}

	defer compute.SetParallelism(compute.Parallelism())
	s, err := New(Config{Dir: dir, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatalf("open parent-written directory: %v", err)
	}
	defer s.Close()

	m, err := s.Registry().Get("m-000001")
	if err != nil {
		t.Fatalf("registry file did not load: %v", err)
	}
	if m.Spec.Name() != "logistic" || m.Dim != 6 || len(m.Theta) != 6 || m.SampleSize != 460 || m.PoolSize != 2700 ||
		m.EstimatedEpsilon != 0.05 || m.UsedInitialModel || m.Diag.Rank != 6 || len(m.Diag.Probes) != 12 ||
		m.Diag.Probes[4] != (core.Probe{N: 450, Fraction: 0.99}) || m.CreatedAt.IsZero() {
		t.Fatalf("registry file decoded to %+v", m)
	}
	var again bytes.Buffer
	if err := modelio.Encode(&again, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), modelFile) {
		t.Fatalf("re-encoded model differs from the file it was read from:\n got  %s\n want %s", again.Bytes(), modelFile)
	}

	e, ok := s.audit.Get("m-000001")
	if !ok || e.Replay == nil {
		t.Fatalf("audit log did not load record and replay: %+v", e)
	}
	want := core.Options{
		Epsilon: 0.05, Delta: 0.05, K: 100, Method: core.ObservedFisher, Seed: 3,
		InitialSampleSize: 300, MinSampleSize: 300, HoldoutFraction: 0.1, MaxHoldout: 2000,
		Optimizer: optimize.Options{MaxIters: 150},
	}
	if !reflect.DeepEqual(e.Record.Options, want) {
		t.Fatalf("record options decoded to %+v, want %+v", e.Record.Options, want)
	}
	parentFNV := e.Replay.FullThetaFNV
	if parentFNV != "beac318961ae3262" {
		t.Fatalf("fixture replay fingerprint %q: testdata changed?", parentFNV)
	}
	if err := s.auditor.ReplayOne(context.Background(), "m-000001"); err != nil {
		t.Fatalf("replay: %v", err)
	}
	e, _ = s.audit.Get("m-000001")
	if e.Replay.Error != "" || e.Replay.FullThetaFNV != parentFNV || e.Replay.Realized != 0.02 {
		t.Fatalf("replay %+v, want the parent's fingerprint %s and realized 0.02", e.Replay, parentFNV)
	}
}

// TestLoadsFilesWrittenBeforeWireTypesMerged holds the bytes of everything
// that now travels as another package's type — the dataset reference
// (cluster.DatasetRef), a search (tune.Result) and a replay outcome
// (audit.ReplayOutcome, embedded) — against files the commit before the merge
// wrote (testdata/pr22, compute degree 1): an audit log with a train record,
// a tune record and both replays, the models they name, the GET /v1/jobs/{id}
// bodies of a halving search (pruned rows) and a flat PPCA grid (rows without
// test_error), and blinkml-tune -json of one grid. Every line and body must
// decode into today's types and re-encode to the bytes it was read from, and
// replaying both records here must reproduce that commit's fingerprints.
func TestLoadsFilesWrittenBeforeWireTypesMerged(t *testing.T) {
	fixture := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", "pr22", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "audit"), 0o755); err != nil {
		t.Fatal(err)
	}
	auditFile := fixture("audit.jsonl")
	for name, data := range map[string][]byte{
		"m-000001.json": fixture("m-000001.json"), "m-000002.json": fixture("m-000002.json"),
		filepath.Join("audit", "audit.jsonl"): auditFile,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The log's lines, through the two types a line holds.
	lines := bytes.Split(bytes.TrimSuffix(auditFile, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("fixture log has %d lines, want 2 records + 2 replays", len(lines))
	}
	for i, line := range lines {
		var ev struct {
			Record *audit.Record `json:"record,omitempty"`
			Replay *audit.Replay `json:"replay,omitempty"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if again, err := json.Marshal(ev); err != nil || !bytes.Equal(again, line) {
			t.Fatalf("audit line %d re-encodes differently (%v):\n got  %s\n want %s", i, err, again, line)
		}
	}

	// The job bodies, as writeJSON wrote them.
	for _, name := range []string{"job_tune_halving.json", "job_tune_ppca_grid.json"} {
		body := fixture(name)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Tune == nil || len(st.Tune.Leaderboard) != st.Tune.Evaluated || st.Tune.Leaderboard[0].Spec == nil {
			t.Fatalf("%s: tune report decoded to %+v", name, st.Tune)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(st); err != nil || !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("%s re-encodes differently (%v):\n got  %s\n want %s", name, err, again.Bytes(), body)
		}
	}
	cli := fixture("blinkml_tune_grid.json")
	var res tune.Result
	if err := json.Unmarshal(cli, &res); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil || !bytes.Equal(again.Bytes(), cli) {
		t.Fatalf("blinkml-tune -json re-encodes differently (%v):\n got  %s\n want %s", err, again.Bytes(), cli)
	}

	// The directory opens, and both records replay to the recorded witness.
	defer compute.SetParallelism(compute.Parallelism())
	s, err := New(Config{Dir: dir, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatalf("open parent-written directory: %v", err)
	}
	defer s.Close()
	for id, kind := range map[string]string{"m-000001": "train", "m-000002": "tune"} {
		e, ok := s.audit.Get(id)
		if !ok || e.Replay == nil || e.Record.Kind != kind || e.Replay.FullThetaFNV == "" {
			t.Fatalf("%s: audit log loaded %+v", id, e)
		}
		recorded := *e.Replay
		if err := s.auditor.ReplayOne(context.Background(), id); err != nil {
			t.Fatalf("replay %s: %v", id, err)
		}
		e, _ = s.audit.Get(id)
		if e.Replay.Error != "" || e.Replay.ReplayOutcome != recorded.ReplayOutcome {
			t.Fatalf("replay of %s measured %+v, the parent recorded %+v", id, e.Replay.ReplayOutcome, recorded.ReplayOutcome)
		}
	}
}

// TestOpenRegistrySweepsCrashedPut: a Put that died between CreateTemp and
// Rename leaves m-<id>.tmp-<n> in the model directory; opening the registry
// removes it (as store.Open removes a crashed ingest's directory) without
// touching real models or the next id. The stray file used to survive every
// restart.
func TestOpenRegistrySweepsCrashedPut(t *testing.T) {
	dir := t.TempDir()
	modelFile, err := os.ReadFile(filepath.Join("testdata", "pr16", "m-000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "m-000009.tmp-123")
	for path, data := range map[string][]byte{filepath.Join(dir, "m-000001.json"): modelFile, stray: modelFile[:100]} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived the open (stat: %v)", err)
	}
	m, err := reg.Get("m-000001")
	if err != nil || reg.Len() != 1 {
		t.Fatalf("real model: %v, %d models", err, reg.Len())
	}
	if id, err := reg.Put(m); err != nil || id != "m-000002" {
		t.Fatalf("next id %q (%v), want m-000002: the stray file's number must not count", id, err)
	}
}
