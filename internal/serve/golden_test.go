package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/optimize"
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
