package core

import (
	"context"
	"errors"
	"expvar"
	"sync"
	"sync/atomic"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// higgsData names an in-memory Higgs-like dataset to a cache and counts how
// often the cache opened it.
func higgsData(seed int64, opens *atomic.Int64) Data {
	ref := datagen.Ref{Name: "higgs", Rows: 3000, Dim: 8, Seed: seed}
	return Data{Key: "syn:" + ref.Name + ":" + string(rune('a'+seed)), Open: func() (dataset.Source, error) {
		opens.Add(1)
		return ref.Build()
	}}
}

var cacheSpec = models.LogisticRegression{Reg: 0.001}

func cacheOptions(eps float64) Options {
	return Options{Epsilon: eps, Seed: 4, InitialSampleSize: 300, K: 30}
}

// TestPlanReadsOnlyTheRowsBeyondItsPrefix: on a store-backed environment a
// plan's second, larger contract reads exactly n₂ − n₁ rows off disk, a
// repeat of the first reads none, and each equals the one-shot run.
func TestPlanReadsOnlyTheRowsBeyondItsPrefix(t *testing.T) {
	ctx := context.Background()
	h, _ := storeBacked(t, 8000)
	opt := Options{Epsilon: 1, Delta: 0.1, Seed: 11, InitialSampleSize: 600}
	env, err := NewEnvFromSource(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(ctx, env, cacheSpec, opt)
	if err != nil {
		t.Fatal(err)
	}
	contract := func(o Options) (*Result, int64) {
		before := h.RowsMaterialized()
		r, err := plan.Contract(ctx, cacheSpec, o)
		if err != nil {
			t.Fatal(err)
		}
		return r, h.RowsMaterialized() - before
	}
	exit, rows := contract(opt)
	if !exit.UsedInitialModel || rows != 0 {
		t.Fatalf("ε = 1: initial model %v after reading %d rows", exit.UsedInitialModel, rows)
	}
	opt.Epsilon = exit.Diag.InitialEpsilon / 2
	first, rows := contract(opt)
	if first.UsedInitialModel || rows != int64(first.SampleSize) {
		t.Fatalf("first search: n = %d (initial model %v), read %d rows", first.SampleSize, first.UsedInitialModel, rows)
	}
	larger := opt
	larger.MinSampleSize = first.SampleSize + 1000
	second, rows := contract(larger)
	if second.SampleSize != first.SampleSize+1000 || rows != 1000 {
		t.Fatalf("second rung: n₁ = %d, n₂ = %d, read %d rows, want n₂ − n₁ = 1000", first.SampleSize, second.SampleSize, rows)
	}
	again, rows := contract(opt)
	if rows != 0 || ThetaFingerprint(again.Theta) != ThetaFingerprint(first.Theta) {
		t.Fatalf("repeat of the first rung read %d rows, θ equal %v", rows, ThetaFingerprint(again.Theta) == ThetaFingerprint(first.Theta))
	}
	oneShot, err := TrainSourceContext(ctx, cacheSpec, h, larger)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.SampleSize != second.SampleSize || ThetaFingerprint(oneShot.Theta) != ThetaFingerprint(second.Theta) {
		t.Fatalf("second rung differs from the one-shot run: n %d vs %d", second.SampleSize, oneShot.SampleSize)
	}
}

// unpublishedCacheMetrics returns fresh series that no expvar map holds, so
// each test counts from zero.
func unpublishedCacheMetrics() *CacheMetrics {
	return &CacheMetrics{Hits: new(expvar.Int), Misses: new(expvar.Int), Evictions: new(expvar.Int), Bytes: new(expvar.Int)}
}

// TestCacheEvictsToBudget: with room for the ladder's entries and one other
// dataset's, a ladder interleaved with jobs on other data keeps hitting its
// plan while resident bytes stay within the budget after every job.
func TestCacheEvictsToBudget(t *testing.T) {
	ctx := context.Background()
	m := unpublishedCacheMetrics()
	c := NewCache(m)
	var opens atomic.Int64
	train := func(seed int64, eps float64) *Result {
		t.Helper()
		r, _, err := c.Train(ctx, higgsData(seed, &opens), "lr", cacheSpec, cacheOptions(eps))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Bytes.Value(); got > c.budget || got <= 0 {
			t.Fatalf("resident bytes %d after a job, budget %d", got, c.budget)
		}
		return r
	}
	train(0, 0.5)
	if r := train(0, 0.05); r.UsedInitialModel {
		t.Fatal("ε = 0.05 did not search: the ladder's plan has not grown its draws")
	}
	c.budget = 2 * m.Bytes.Value()
	for rung, eps := range []float64{0.2, 0.02, 0.01} {
		if r := train(0, eps); !r.Diag.PlanReused {
			t.Fatalf("ladder rung %d rebuilt its plan", rung)
		}
		train(int64(rung+1), 0.5) // someone else's data, each time another
	}
	if m.Evictions.Value() == 0 {
		t.Fatalf("four datasets fit a budget sized for two ladders: %d bytes resident of %d", m.Bytes.Value(), c.budget)
	}
	if got := opens.Load(); got != 4 {
		t.Fatalf("datasets opened %d times, want once each (4)", got)
	}
	if hits, misses := m.Hits.Value(), m.Misses.Value(); hits != 4 || misses != 4 {
		t.Fatalf("plan lookups: %d hits %d misses, want 4 and 4", hits, misses)
	}
}

// TestCacheDoesNotKeepACancelledBuild: a NewPlan cancelled inside the
// initial training is not cached; the next request builds cleanly and
// answers what a one-shot run does.
func TestCacheDoesNotKeepACancelledBuild(t *testing.T) {
	m := unpublishedCacheMetrics()
	c := NewCache(m)
	var opens atomic.Int64
	data := higgsData(1, &opens)

	ctx, cancel := context.WithCancel(context.Background())
	opt := cacheOptions(0.05)
	opt.Optimizer.OnIterate = func(int, float64, float64) { cancel() }
	if _, _, err := c.Train(ctx, data, "lr", cacheSpec, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	for _, e := range c.envs {
		if len(e.plans) != 0 {
			t.Fatalf("the cancelled plan is cached")
		}
	}

	got, _, err := c.Train(context.Background(), data, "lr", cacheSpec, cacheOptions(0.05))
	if err != nil {
		t.Fatal(err)
	}
	src, _ := data.Open()
	want, err := TrainSourceContext(context.Background(), cacheSpec, src, cacheOptions(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if got.Diag.PlanReused || got.SampleSize != want.SampleSize || ThetaFingerprint(got.Theta) != ThetaFingerprint(want.Theta) {
		t.Fatalf("after a cancelled build: reused %v, n %d vs %d", got.Diag.PlanReused, got.SampleSize, want.SampleSize)
	}
	if m.Misses.Value() != 1 || m.Hits.Value() != 0 {
		t.Fatalf("%d misses %d hits, want the one clean build", m.Misses.Value(), m.Hits.Value())
	}
}

// TestCacheDropForgetsTheDataset: after Drop the dataset's entries and bytes
// are gone, other datasets' stay, and the next request resolves the source
// again — so it sees whatever the store now answers for that id.
func TestCacheDropForgetsTheDataset(t *testing.T) {
	ctx := context.Background()
	m := unpublishedCacheMetrics()
	c := NewCache(m)
	var opens atomic.Int64
	kept, dropped := higgsData(1, &opens), higgsData(2, &opens)
	for _, d := range []Data{kept, dropped} {
		if _, _, err := c.Train(ctx, d, "lr", cacheSpec, cacheOptions(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Bytes.Value()
	c.Drop(dropped.Key)
	if after := m.Bytes.Value(); after <= 0 || after >= before || len(c.envs) != 1 {
		t.Fatalf("bytes %d → %d with %d environments left, want a drop to one", before, after, len(c.envs))
	}
	notFound := errors.New("store: dataset not found")
	dropped.Open = func() (dataset.Source, error) { return nil, notFound }
	if _, _, err := c.Train(ctx, dropped, "lr", cacheSpec, cacheOptions(0.05)); !errors.Is(err, notFound) {
		t.Fatalf("train on the dropped dataset returned %v, want the source's not-found", err)
	}
	if r, _, err := c.Train(ctx, kept, "lr", cacheSpec, cacheOptions(0.05)); err != nil || !r.Diag.PlanReused {
		t.Fatalf("the other dataset's plan did not survive the drop (err %v)", err)
	}
}

// TestCacheBuildsOnceForConcurrentFirstRequests: two first requests for one
// key share one environment build and one plan build, and agree.
func TestCacheBuildsOnceForConcurrentFirstRequests(t *testing.T) {
	m := unpublishedCacheMetrics()
	c := NewCache(m)
	var opens atomic.Int64
	data := higgsData(1, &opens)
	opened, release := make(chan struct{}), make(chan struct{})
	open := data.Open
	var once sync.Once
	data.Open = func() (dataset.Source, error) {
		once.Do(func() { close(opened) })
		<-release
		return open()
	}
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := c.Train(context.Background(), data, "lr", cacheSpec, cacheOptions(0.05))
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}()
		if i == 0 {
			<-opened // the first request is inside its build when the second starts
		}
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	if opens.Load() != 1 || m.Misses.Value() != 1 || m.Hits.Value() != 1 {
		t.Fatalf("%d opens, %d plan builds, %d hits; want 1, 1, 1", opens.Load(), m.Misses.Value(), m.Hits.Value())
	}
	if a, b := results[0], results[1]; a.SampleSize != b.SampleSize || ThetaFingerprint(a.Theta) != ThetaFingerprint(b.Theta) || a.Diag.PlanReused == b.Diag.PlanReused {
		t.Fatalf("the two requests disagree (n %d vs %d) or both claim the build", a.SampleSize, b.SampleSize)
	}
}
