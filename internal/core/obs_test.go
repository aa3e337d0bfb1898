package core

import (
	"context"
	"math"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

// TestStatisticsChargedThroughContext: the statistics phase charges the
// dense work it ran to the context's ledger — on a scope that is never
// bound to a goroutine — and all of it under the "statistics" stage. The
// counts are the documented ones: the J (or G) build by its shape and the
// gradient rows' nnz, the eigensolve's 4n³, and for ClosedForm the LU, its
// two solves and the eigensolve.
func TestStatisticsChargedThroughContext(t *testing.T) {
	cube := func(n int64) int64 { return n * n * n }
	const n0 = 2000
	higgs := datagen.Higgs(datagen.Config{Rows: 10000, Dim: 28, Seed: 3})
	// Gram side: d = 3000 > n₀ = 300, every row (and so every gradient
	// row) holds exactly 6 entries.
	const gramN0, nnz = 300, 6
	sparse := sparseFixture(t, dataset.BinaryClassification, 3000, 3000, nnz, 0, 4)
	for _, c := range []struct {
		name  string
		ds    *dataset.Dataset
		opt   Options
		calls int64
		flops int64
	}{
		// J = d(d+1)·n₀ by Syrk's count, then 4d³.
		{"covariance", higgs, Options{InitialSampleSize: n0}, 2, 28*29*n0 + 4*cube(28)},
		// G's triangle is n₀(n₀+1)·nnz, then 4n₀³ — not n₀(n₀+1)·d.
		{"gram-sparse", sparse, Options{InitialSampleSize: gramN0}, 2, gramN0*(gramN0+1)*nnz + 4*cube(gramN0)},
		// One LU (2/3)d³, two solves of d right-hand sides 2d³ each, 4d³.
		{"closed-form", higgs, Options{InitialSampleSize: n0, Method: ClosedForm}, 4, 2*cube(28)/3 + 2*2*cube(28) + 4*cube(28)},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opt.Seed = 5
			ctx, scope := obs.Begin(context.Background(), "", "", nil)
			if _, err := NewPlan(ctx, NewEnv(c.ds, c.opt), models.LogisticRegression{Reg: 0.001}, c.opt); err != nil {
				t.Fatal(err)
			}
			s := scope.Ledger.Snapshot()
			if s.KernelCalls != c.calls || s.Flops != c.flops || s.KernelMs <= 0 {
				t.Fatalf("ledger kernel_calls %d flops %d kernel_ms %v, want %d, %d and > 0",
					s.KernelCalls, s.Flops, s.KernelMs, c.calls, c.flops)
			}
			var under int64
			for _, st := range s.Stages {
				if st.KernelCalls != 0 && st.Stage != "statistics" {
					t.Fatalf("kernel calls charged under stage %q: %+v", st.Stage, s.Stages)
				}
				under += st.KernelCalls
			}
			if under != c.calls {
				t.Fatalf("stages carry %d kernel calls, want all %d under statistics: %+v", under, c.calls, s.Stages)
			}
		})
	}
}

// TestDiagnosticsAreTheSpans: each phase has one clock. With a recorder,
// every Diagnostics duration is the exact sum of its phase's spans — for a
// contract that builds its plan and searches, and for a plan hit that exits
// early, whose accuracy quantile is its one probe span. Without a recorder
// the spans still time, so all four durations are positive.
func TestDiagnosticsAreTheSpans(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 8000, Dim: 10, Seed: 6})
	spec := models.LogisticRegression{Reg: 0.001}
	opt := Options{Epsilon: 0.01, Seed: 7, InitialSampleSize: 300}
	contract := func(ctx context.Context, p *Plan, eps float64) Diagnostics {
		o := opt
		o.Epsilon = eps
		res, err := p.Contract(ctx, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Diag
	}
	newPlan := func(ctx context.Context) *Plan {
		p, err := NewPlan(ctx, NewEnv(ds, opt), spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	ctx, scope := obs.Begin(context.Background(), "t", "", nil)
	p := newPlan(ctx)
	searched := contract(ctx, p, opt.Epsilon)
	if len(searched.Probes) == 0 || searched.FinalTrain == 0 {
		t.Fatalf("the contract at ε = %v did not search: %+v", opt.Epsilon, searched)
	}
	// spans[name] lists the recorded durations in order; Record stores
	// float64(d)/1e6 ms, which rounds back to d exactly.
	spans := map[string][]time.Duration{}
	take := func() {
		clear(spans)
		for _, s := range scope.Recorder.Spans() {
			spans[s.Name] = append(spans[s.Name], time.Duration(math.Round(s.DurMs*float64(time.Millisecond))))
		}
	}
	take()
	if len(spans["sample"]) != 2 || len(spans["optimize"]) != 2 || len(spans["statistics"]) != 1 || len(spans["probe"]) != 2 {
		t.Fatalf("span counts: %v", spans)
	}
	for _, c := range []struct {
		phase     string
		got, want time.Duration
	}{
		{"InitialTrain", searched.InitialTrain, spans["sample"][0] + spans["optimize"][0]},
		{"Statistics", searched.Statistics, spans["statistics"][0]},
		{"SampleSearch", searched.SampleSearch, spans["probe"][0] + spans["probe"][1]},
		{"FinalTrain", searched.FinalTrain, spans["sample"][1] + spans["optimize"][1]},
	} {
		if c.got != c.want || c.got <= 0 {
			t.Errorf("%s = %v, want its spans' %v", c.phase, c.got, c.want)
		}
	}

	early := contract(ctx, p, 1)
	take()
	if probes := spans["probe"]; !early.PlanReused || len(probes) != 3 || early.SampleSearch != probes[2] ||
		early.InitialTrain != 0 || early.Statistics != 0 || early.FinalTrain != 0 {
		t.Fatalf("plan-hit early exit: %+v, probe spans %v", early, probes)
	}

	bare := contract(context.Background(), newPlan(context.Background()), opt.Epsilon)
	if bare.InitialTrain <= 0 || bare.Statistics <= 0 || bare.SampleSearch <= 0 || bare.FinalTrain <= 0 {
		t.Fatalf("without a recorder: %+v", bare)
	}
}
