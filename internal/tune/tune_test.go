package tune

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

func higgs(t *testing.T, rows, dim int) *dataset.Dataset {
	t.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: rows, Dim: dim, Seed: 7})
	if err != nil {
		t.Fatalf("generate higgs: %v", err)
	}
	return ds
}

func baseOptions() core.Options {
	return core.Options{
		Epsilon:           0.1,
		Delta:             0.05,
		Seed:              11,
		InitialSampleSize: 300,
		K:                 60,
		TestFraction:      0.15,
	}
}

// TestSpaceCandidatesDeterministic checks that enumeration is a pure
// function of the seed and that grid candidates precede random ones.
func TestSpaceCandidatesDeterministic(t *testing.T) {
	space := Space{
		Grid: []models.Spec{models.LogisticRegression{Reg: 0.5}},
		Random: &RandomSpace{
			Model: "logistic", N: 5, RegMin: 1e-6, RegMax: 1,
		},
	}
	a, err := space.Candidates(42)
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	b, _ := space.Candidates(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different candidates")
	}
	if len(a) != 6 {
		t.Fatalf("got %d candidates, want 6", len(a))
	}
	if a[0].Origin != "grid" || a[1].Origin != "random" {
		t.Fatalf("origin order wrong: %v %v", a[0].Origin, a[1].Origin)
	}
	c, _ := space.Candidates(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical random draws")
	}
	for _, cand := range a[1:] {
		reg := cand.Spec.(models.LogisticRegression).Reg
		if reg < 1e-6 || reg > 1 {
			t.Fatalf("reg %v outside [1e-6, 1]", reg)
		}
	}
}

// TestRandomSpaceOneSidedRange checks a single bound keeps the documented
// default for the other side instead of collapsing to a point.
func TestRandomSpaceOneSidedRange(t *testing.T) {
	space := Space{Random: &RandomSpace{Model: "logistic", N: 10, RegMax: 0.1}}
	cands, err := space.Candidates(1)
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	distinct := map[float64]bool{}
	for _, c := range cands {
		reg := c.Spec.(models.LogisticRegression).Reg
		if reg < 1e-6 || reg > 0.1 {
			t.Fatalf("reg %v outside [1e-6, 0.1]", reg)
		}
		distinct[reg] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("one-sided range collapsed to a point: %v", distinct)
	}
}

func TestSpaceValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Space
		want string
	}{
		{"empty", Space{}, "empty search space"},
		{"nil grid entry", Space{Grid: []models.Spec{nil}}, "is nil"},
		{"unknown family", Space{Random: &RandomSpace{Model: "svm"}}, "unknown model family"},
		{"missing family", Space{Random: &RandomSpace{}}, "needs a model family"},
		{"bad reg range", Space{Random: &RandomSpace{Model: "logistic", RegMin: 1, RegMax: 0.1}}, "regularization range"},
	}
	for _, tc := range cases {
		if _, err := tc.s.Candidates(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestGridSearchRanksCandidates runs a small grid search and checks the
// leaderboard is complete, ranked by ascending test error, and the winner
// carries its contract.
func TestGridSearchRanksCandidates(t *testing.T) {
	ds := higgs(t, 4000, 10)
	space := Space{Grid: []models.Spec{
		models.LogisticRegression{Reg: 1e-4},
		models.LogisticRegression{Reg: 1e-2},
		models.LogisticRegression{Reg: 10},
	}}
	rec := obs.NewRecorder("t")
	res, err := RunSource(obs.WithRecorder(context.Background(), rec), space, ds, Config{Train: baseOptions()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Building the shared environment is the search's ingest stage.
	if spans := rec.Spans(); len(spans) == 0 || spans[0].Name != "ingest" {
		t.Fatalf("the environment build is not attributed: first span of %d is not ingest", len(spans))
	}
	if len(res.Leaderboard) != 3 || res.Evaluated != 3 || res.Pruned != 0 {
		t.Fatalf("result %+v, want 3 entries", res)
	}
	for i, e := range res.Leaderboard {
		if e.Rank != i+1 {
			t.Fatalf("entry %d has rank %d", i, e.Rank)
		}
		if e.Err != "" {
			t.Fatalf("entry %d failed: %s", i, e.Err)
		}
		if e.EstimatedEpsilon <= 0 {
			t.Fatalf("entry %d has no contract epsilon: %+v", i, e)
		}
		if i > 0 && res.Leaderboard[i-1].TestError > e.TestError {
			t.Fatalf("leaderboard not sorted: %v then %v", res.Leaderboard[i-1].TestError, e.TestError)
		}
	}
	if res.Best == nil || len(res.Best.Theta) != 10 || res.Best.PoolSize == 0 {
		t.Fatalf("winner not trained: %+v", res.Best)
	}
}

// TestHalvingSearchDeterministicLeaderboard is the acceptance scenario:
// successive halving over 24 seeded random logistic-regression candidates
// on the synthetic higgs workload, run twice, must produce identical
// leaderboards — and must actually prune.
func TestHalvingSearchDeterministicLeaderboard(t *testing.T) {
	ds := higgs(t, 6000, 10)
	space := Space{Random: &RandomSpace{Model: "logistic", N: 24, RegMin: 1e-6, RegMax: 1}}
	cfg := Config{
		Train:   baseOptions(),
		Workers: 4,
		Halving: true,
		Rungs:   3,
		Eta:     2,
	}
	run := func() *Result {
		res, err := RunSource(context.Background(), space, ds, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()

	if a.Evaluated != 24 || len(a.Leaderboard) != 24 {
		t.Fatalf("evaluated %d candidates, want 24", a.Evaluated)
	}
	if a.Pruned == 0 {
		t.Fatal("halving pruned nothing")
	}
	// Survivors after 3 rungs of eta=2: 24 → 12 → 6 → 3 contract-trained.
	contract := 0
	for _, e := range a.Leaderboard {
		if !e.Pruned && e.Err == "" && e.EstimatedEpsilon > 0 {
			contract++
		}
	}
	if contract != 3 {
		t.Fatalf("%d contract-trained survivors, want 3", contract)
	}
	if a.Best == nil || a.Best.EstimatedEpsilon <= 0 || a.Best.EstimatedEpsilon > cfg.Train.Epsilon {
		t.Fatalf("winner contract %+v, want 0 < ε ≤ %v", a.Best, cfg.Train.Epsilon)
	}

	// Determinism: identical specs, ranks, scores, sample sizes across runs
	// (wall times differ, so compare the deterministic fields).
	if len(a.Leaderboard) != len(b.Leaderboard) {
		t.Fatalf("leaderboard lengths differ: %d vs %d", len(a.Leaderboard), len(b.Leaderboard))
	}
	for i := range a.Leaderboard {
		ea, eb := a.Leaderboard[i], b.Leaderboard[i]
		if !reflect.DeepEqual(ea.Spec, eb.Spec) || ea.Rank != eb.Rank ||
			ea.Pruned != eb.Pruned || ea.Rung != eb.Rung ||
			ea.SampleSize != eb.SampleSize ||
			!sameScore(ea.TestError, eb.TestError) ||
			ea.EstimatedEpsilon != eb.EstimatedEpsilon {
			t.Fatalf("rank %d differs across seeded runs:\n%+v\n%+v", i+1, ea, eb)
		}
	}
	if !reflect.DeepEqual(a.Best.Spec, b.Best.Spec) {
		t.Fatalf("winners differ: %+v vs %+v", a.Best.Spec, b.Best.Spec)
	}

	// Pruned candidates never trained past their rung's subsample.
	for _, e := range a.Leaderboard {
		if e.Pruned && e.SampleSize >= a.PoolSize {
			t.Fatalf("pruned candidate trained on the whole pool: %+v", e)
		}
	}
}

func sameScore(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return x == y
}

// TestSearchCancellation cancels a search mid-flight and checks it returns
// promptly with the context error instead of finishing the sweep.
func TestSearchCancellation(t *testing.T) {
	ds := higgs(t, 20000, 15)
	// Plenty of candidates so the sweep cannot finish before the cancel.
	space := Space{Random: &RandomSpace{Model: "logistic", N: 40}}
	cfg := Config{Train: baseOptions(), Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = RunSource(ctx, space, ds, cfg)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("search did not stop after cancellation")
	}
	if err == nil {
		t.Fatalf("cancelled search returned %+v, want error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchSurvivesCandidateFailure mixes one impossible candidate into a
// grid and checks the search completes, records the failure, and ranks it
// last.
func TestSearchSurvivesCandidateFailure(t *testing.T) {
	ds := higgs(t, 3000, 10)
	space := Space{Grid: []models.Spec{
		models.LogisticRegression{Reg: 1e-3},
		models.LinearRegression{Reg: 1e-3}, // wrong task: fails at train time
	}}
	res, err := RunSource(context.Background(), space, ds, Config{Train: baseOptions()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Leaderboard) != 2 {
		t.Fatalf("%d entries, want 2", len(res.Leaderboard))
	}
	last := res.Leaderboard[1]
	if last.Err == "" || !strings.Contains(last.Err, "task") {
		t.Fatalf("failed candidate not recorded: %+v", last)
	}
	if res.Best == nil || res.Best.Spec.Name() != "logistic" {
		t.Fatalf("winner %+v, want the logistic candidate", res.Best)
	}
}

// TestSearchAllFail checks the search errors out when nothing survives.
func TestSearchAllFail(t *testing.T) {
	ds := higgs(t, 1000, 5)
	space := Space{Grid: []models.Spec{models.LinearRegression{Reg: 1e-3}}}
	_, err := RunSource(context.Background(), space, ds, Config{Train: baseOptions()})
	if err == nil || !strings.Contains(err.Error(), "no candidate survived") {
		t.Fatalf("err = %v, want 'no candidate survived'", err)
	}
}

// TestHalvingAllFail checks a halving search where every candidate fails a
// rung returns a clean error instead of panicking (regression: the prune
// slice used to be cut past an empty survivor list).
func TestHalvingAllFail(t *testing.T) {
	ds := higgs(t, 2000, 8)
	// Wrong task for every candidate: all fail at rung 0.
	space := Space{Grid: []models.Spec{
		models.LinearRegression{Reg: 1e-3},
		models.LinearRegression{Reg: 1e-2},
		models.LinearRegression{Reg: 1e-1},
	}}
	_, err := RunSource(context.Background(), space, ds, Config{Train: baseOptions(), Halving: true, Rungs: 2})
	if err == nil || !strings.Contains(err.Error(), "no candidate survived") {
		t.Fatalf("err = %v, want 'no candidate survived'", err)
	}
}

// TestHalvingRejectsUnsupervised checks halving refuses model classes with
// no supervised pruning metric (PPCA) instead of pruning arbitrarily.
func TestHalvingRejectsUnsupervised(t *testing.T) {
	ds := higgs(t, 2000, 8)
	space := Space{Random: &RandomSpace{Model: "ppca", N: 4}}
	_, err := RunSource(context.Background(), space, ds, Config{Train: baseOptions(), Halving: true})
	if err == nil || !strings.Contains(err.Error(), "supervised test metric") {
		t.Fatalf("err = %v, want supervised-metric rejection", err)
	}
	// A flat search over the same space is still allowed.
	if _, err := RunSource(context.Background(), space, ds, Config{Train: baseOptions()}); err != nil {
		t.Fatalf("flat ppca search failed: %v", err)
	}
}

// TestSearchBadEpsilon checks contract validation happens up front.
func TestSearchBadEpsilon(t *testing.T) {
	ds := higgs(t, 1000, 5)
	space := Space{Grid: []models.Spec{models.LogisticRegression{Reg: 1e-3}}}
	if _, err := RunSource(context.Background(), space, ds, Config{}); err == nil {
		t.Fatal("zero epsilon accepted")
	}
}

// TestSharedEnvReuse checks SearchRunner over a caller-prepared Env evaluates all
// candidates against the same pool (PoolSize agrees with the Env).
func TestSharedEnvReuse(t *testing.T) {
	ds := higgs(t, 3000, 10)
	opt := baseOptions()
	env := core.NewEnv(ds, opt)
	space := Space{Grid: []models.Spec{
		models.LogisticRegression{Reg: 1e-3},
		models.LogisticRegression{Reg: 1e-2},
	}}
	res, err := SearchRunner(context.Background(), space, NewEnvRunner(env, opt), Config{Train: opt})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res.PoolSize != env.PoolLen() {
		t.Fatalf("pool size %d, want %d", res.PoolSize, env.PoolLen())
	}
	if res.Best.PoolSize != env.PoolLen() {
		t.Fatalf("winner pool %d, want %d", res.Best.PoolSize, env.PoolLen())
	}
}
