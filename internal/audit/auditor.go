package audit

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
)

// SourceResolver turns a record's dataset reference back into the bytes it
// was trained on; whoever owns the dataset store supplies it.
type SourceResolver func(ctx context.Context, ref json.RawMessage) (dataset.Source, error)

// ModelLookup fetches a stored model by ID (the registry, in serving).
type ModelLookup func(id string) (*modelio.Model, error)

// Replayer validates one record. The serving layer's replays an audit task
// wherever its tasks run; LocalReplayer trains in-process with nothing in
// between, and is the reference tests hold that one against.
type Replayer interface {
	Replay(ctx context.Context, rec Record, m *modelio.Model) (ReplayOutcome, error)
}

// LocalReplayer rebuilds the recorded environment in-process and trains
// the full-data model through core.ReplayGuarantee. Because the recorded
// options pin the split seed and optimizer budget, the full model is
// bit-identical to what direct training at those options produces.
type LocalReplayer struct {
	Resolve SourceResolver
}

// Replay implements Replayer.
func (r LocalReplayer) Replay(ctx context.Context, rec Record, m *modelio.Model) (ReplayOutcome, error) {
	if r.Resolve == nil {
		return ReplayOutcome{}, errors.New("audit: LocalReplayer needs a source resolver")
	}
	src, err := r.Resolve(ctx, rec.Dataset)
	if err != nil {
		return ReplayOutcome{}, fmt.Errorf("resolve dataset: %w", err)
	}
	rep, err := core.ReplayGuarantee(ctx, src, m.Spec, m.Theta, rec.EpsilonHat, rec.Options)
	if err != nil {
		return ReplayOutcome{}, err
	}
	return NewReplayOutcome(rep), nil
}

// Config tunes the background auditor.
type Config struct {
	// Fraction of pending records each background pass replays, sampled
	// deterministically by model ID (default 1: audit everything).
	Fraction float64
	// Interval between background passes; 0 disables the background loop
	// (replays then run only on explicit request).
	Interval time.Duration
	// Concurrency bounds simultaneous replays (default 1). Each replay is
	// a full-data training, so this rides the compute pool — keep it small
	// or audits starve live jobs.
	Concurrency int
	// Seed perturbs the sampling hash so different deployments audit
	// different subsets.
	Seed   int64
	Logger *slog.Logger
}

// Auditor drains the log's pending records through a Replayer: a
// rate-limited, cancellable background loop plus a synchronous path for
// the replay endpoint and CLI.
type Auditor struct {
	log    *Log
	lookup ModelLookup
	rep    Replayer
	cfg    Config

	sem    chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewAuditor wires an auditor over the log. Call Start for the background
// loop; ReplayPending works either way.
func NewAuditor(log *Log, lookup ModelLookup, rep Replayer, cfg Config) *Auditor {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		cfg.Fraction = 1
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Auditor{
		log:    log,
		lookup: lookup,
		rep:    rep,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Concurrency),
		ctx:    ctx,
		cancel: cancel,
	}
}

// Start launches the background loop if an interval is configured.
func (a *Auditor) Start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-a.ctx.Done():
				return
			case <-tick.C:
				n, err := a.pass(a.ctx)
				if err != nil && !errors.Is(err, context.Canceled) {
					a.cfg.Logger.Warn("audit pass failed", "err", err)
				} else if n > 0 {
					a.cfg.Logger.Info("audit pass complete", "replayed", n)
				}
			}
		}
	}()
}

// Close stops the background loop and waits for in-flight replays.
func (a *Auditor) Close() {
	a.cancel()
	a.wg.Wait()
}

// sampled reports whether the fraction-sampling admits this record on a
// background pass. The hash is deterministic in (seed, model ID), so a
// record's fate doesn't flap between passes — skipped stays skipped until
// an explicit replay asks for everything.
func (a *Auditor) sampled(modelID string) bool {
	if a.cfg.Fraction >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", a.cfg.Seed, modelID)
	return float64(h.Sum64()%1000)/1000 < a.cfg.Fraction
}

// pass is one background sweep: the sampled subset of pending records.
func (a *Auditor) pass(ctx context.Context) (int, error) {
	pending := a.log.Pending()
	picked := pending[:0:0]
	for _, rec := range pending {
		if a.sampled(rec.ModelID) {
			picked = append(picked, rec)
		}
	}
	return a.replayAll(ctx, picked)
}

// ReplayPending synchronously replays every pending record (no fraction
// sampling — an explicit request wants the full picture), at most max when
// max > 0. Returns how many replays were appended.
func (a *Auditor) ReplayPending(ctx context.Context, max int) (int, error) {
	pending := a.log.Pending()
	if max > 0 && len(pending) > max {
		pending = pending[:max]
	}
	return a.replayAll(ctx, pending)
}

// ReplayOne replays a single record by model ID, even if already replayed
// (the retry path for errored replays).
func (a *Auditor) ReplayOne(ctx context.Context, modelID string) error {
	e, ok := a.log.Get(modelID)
	if !ok {
		return fmt.Errorf("audit: no record for model %s", modelID)
	}
	return a.replay(ctx, e.Record)
}

func (a *Auditor) replayAll(ctx context.Context, recs []Record) (int, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		done  int
		first error
	)
	for _, rec := range recs {
		select {
		case <-ctx.Done():
			wg.Wait()
			return done, ctx.Err()
		case a.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(rec Record) {
			defer wg.Done()
			defer func() { <-a.sem }()
			err := a.replay(ctx, rec)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				done++
			} else if first == nil {
				first = err
			}
		}(rec)
	}
	wg.Wait()
	return done, first
}

// replay validates one record and appends the outcome. A replay killed by
// context cancellation is not appended — the record stays pending for the
// next pass; any other failure is appended with Error set so it is not
// retried implicitly.
func (a *Auditor) replay(ctx context.Context, rec Record) error {
	start := time.Now()
	out, err := a.replayOutcome(ctx, rec)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	rep := Replay{
		ModelID:       rec.ModelID,
		ReplayOutcome: out,
		ElapsedMs:     float64(time.Since(start)) / float64(time.Millisecond),
		ReplayedAt:    time.Now().UTC(),
	}
	if err != nil {
		rep.Error = err.Error()
		rep.ReplayOutcome = ReplayOutcome{EpsilonHat: rec.EpsilonHat}
	}
	if aerr := a.log.AppendReplay(rep); aerr != nil {
		return aerr
	}
	return err
}

func (a *Auditor) replayOutcome(ctx context.Context, rec Record) (ReplayOutcome, error) {
	if a.lookup == nil || a.rep == nil {
		return ReplayOutcome{}, errors.New("audit: auditor has no model lookup or replayer")
	}
	m, err := a.lookup(rec.ModelID)
	if err != nil {
		return ReplayOutcome{}, fmt.Errorf("load model: %w", err)
	}
	return a.rep.Replay(ctx, rec, m)
}
