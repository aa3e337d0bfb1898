package audit

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
)

func testRecord(id, family string) Record {
	return Record{
		ModelID:    id,
		JobID:      "job-" + id,
		Kind:       "train",
		Family:     family,
		Spec:       modelio.SpecJSON{Name: family},
		Epsilon:    0.1,
		Delta:      0.05,
		K:          100,
		SampleSize: 500,
		PoolSize:   5000,
		EpsilonHat: 0.08,
		Options:    core.Options{Epsilon: 0.1, Seed: 1}.WithDefaults(),
		CreatedAt:  time.Unix(0, 0).UTC(),
	}
}

// A crash mid-append leaves a torn final line; Open must load every intact
// record and keep accepting appends.
func TestLogSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(fmt.Sprintf("m-%d", i), "logistic")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendReplay(Replay{ModelID: "m-0", ReplayOutcome: ReplayOutcome{Realized: 0.05, EpsilonHat: 0.08, Satisfied: true}, ReplayedAt: time.Unix(0, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a record line cut off mid-JSON.
	path := filepath.Join(dir, "audit.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"record":{"model_id":"m-torn","fam`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer l2.Close()
	if got := len(l2.Entries()); got != 3 {
		t.Fatalf("loaded %d records, want 3 (torn line skipped)", got)
	}
	if e, ok := l2.Get("m-0"); !ok || e.Replay == nil || !e.Replay.Satisfied {
		t.Fatalf("replay for m-0 lost across reload: %+v", e)
	}
	if got := len(l2.Pending()); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	// The log must still accept appends after recovery.
	if err := l2.Append(testRecord("m-after", "linear")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if _, ok := l2.Get("m-after"); !ok {
		t.Fatal("post-recovery record not indexed")
	}
}

// Concurrent appends must never interleave bytes (run under -race).
func TestLogConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("m-%d-%d", w, i)
				if err := l.Append(testRecord(id, "logistic")); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
				if i%3 == 0 {
					if err := l.AppendReplay(Replay{ModelID: id, ReplayOutcome: ReplayOutcome{Realized: 0.05, EpsilonHat: 0.08, Satisfied: true}, ReplayedAt: time.Unix(0, 0).UTC()}); err != nil {
						t.Errorf("replay %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line must parse — torn or interleaved lines would be skipped on
	// load and show up as missing entries.
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(l2.Entries()); got != writers*per {
		t.Fatalf("reloaded %d records, want %d", got, writers*per)
	}
	rep := l2.Summary()
	if rep.Replayed != writers*((per+2)/3) {
		t.Fatalf("reloaded %d replays, want %d", rep.Replayed, writers*((per+2)/3))
	}
	if rep.Families[0].Coverage != 1 {
		t.Fatalf("coverage = %v, want 1", rep.Families[0].Coverage)
	}
}

// The auditor's replay must reproduce the full-data model bit for bit:
// identical fingerprints across two replays and a direct training at the
// recorded options.
func TestReplayDeterministicBitIdentical(t *testing.T) {
	pool := datagen.Higgs(datagen.Config{Rows: 3000, Dim: 5, Seed: 9})
	spec := models.LogisticRegression{Reg: 0.01}
	opts := core.Options{Epsilon: 0.15, Seed: 41, InitialSampleSize: 400}.WithDefaults()
	env := core.NewEnv(pool, opts)
	res, err := env.TrainApproxContext(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecord("m-det", "logistic")
	rec.EpsilonHat = res.EstimatedEpsilon
	rec.Options = opts
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}

	model := &modelio.Model{Spec: spec, Theta: res.Theta}
	a := NewAuditor(l,
		func(id string) (*modelio.Model, error) { return model, nil },
		LocalReplayer{Resolve: func(context.Context, json.RawMessage) (dataset.Source, error) { return pool, nil }},
		Config{Concurrency: 2},
	)
	defer a.Close()
	n, err := a.ReplayPending(context.Background(), 0)
	if err != nil || n != 1 {
		t.Fatalf("ReplayPending = %d, %v", n, err)
	}
	e, _ := l.Get("m-det")
	if e.Replay == nil || e.Replay.Error != "" {
		t.Fatalf("replay failed: %+v", e.Replay)
	}
	first := e.Replay.FullThetaFNV

	// Second replay of the same record (the explicit-retry path).
	if err := a.ReplayOne(context.Background(), "m-det"); err != nil {
		t.Fatal(err)
	}
	e, _ = l.Get("m-det")
	if e.Replay.FullThetaFNV != first {
		t.Fatalf("replay not deterministic: %s vs %s", first, e.Replay.FullThetaFNV)
	}

	// Direct training at the recorded options must land on the same bits.
	env2, err := core.NewEnvFromSource(pool, rec.Options)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env2.TrainFull(spec, rec.Options.Optimizer)
	if err != nil {
		t.Fatal(err)
	}
	if direct := fmt.Sprintf("%016x", core.ThetaFingerprint(full.Theta)); direct != first {
		t.Fatalf("replay %s != direct training %s", first, direct)
	}
}

// A failed replay is recorded with Error set, leaves pending, and counts
// as a failure — never as a coverage sample.
func TestReplayFailureRecorded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord("m-err", "poisson")); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(l,
		func(id string) (*modelio.Model, error) { return nil, errors.New("registry lost it") },
		LocalReplayer{}, Config{})
	defer a.Close()
	if _, err := a.ReplayPending(context.Background(), 0); err == nil {
		t.Fatal("want replay error surfaced")
	}
	if got := len(l.Pending()); got != 0 {
		t.Fatalf("errored replay still pending: %d", got)
	}
	rep := l.Summary()
	if rep.Failures != 1 || rep.Replayed != 0 {
		t.Fatalf("failures=%d replayed=%d, want 1/0", rep.Failures, rep.Replayed)
	}
	e, _ := l.Get("m-err")
	if e.Replay == nil || e.Replay.Error == "" {
		t.Fatalf("failure not durably recorded: %+v", e.Replay)
	}
}

// The fraction sampler must be deterministic and roughly proportional.
func TestAuditorFractionSampling(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := NewAuditor(l, nil, nil, Config{Fraction: 0.4, Seed: 7})
	defer a.Close()
	picked := 0
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("m-%03d", i)
		if a.sampled(id) != a.sampled(id) {
			t.Fatalf("sampling of %s not deterministic", id)
		}
		if a.sampled(id) {
			picked++
		}
	}
	if picked < 120 || picked > 280 {
		t.Fatalf("fraction 0.4 picked %d/500", picked)
	}
}
