package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// contractOutcome is what a contract promises to reproduce bit for bit.
type contractOutcome struct {
	N           int
	Theta       uint64 // ThetaFingerprint
	Epsilon     uint64 // EstimatedEpsilon's bits
	UsedInitial bool
	Probes      []Probe
	NoiseVar    uint64 // the spec's derived state afterwards (PPCA's σ² bits; 0 for stateless specs)
}

func outcomeOf(spec models.Spec, r *Result) contractOutcome {
	o := contractOutcome{
		N: r.SampleSize, Theta: ThetaFingerprint(r.Theta), Epsilon: math.Float64bits(r.EstimatedEpsilon),
		UsedInitial: r.UsedInitialModel, Probes: r.Diag.Probes,
	}
	if s, ok := spec.(noiseVariance); ok {
		o.NoiseVar = math.Float64bits(s.SigmaSq())
	}
	return o
}

var planFamilies = []struct {
	name    string
	spec    func() models.Spec // a fresh instance: PPCA records σ² on itself
	task    dataset.Task
	classes int
}{
	{"linear", func() models.Spec { return models.LinearRegression{Reg: 0.001} }, dataset.Regression, 0},
	{"logistic", func() models.Spec { return models.LogisticRegression{Reg: 0.001} }, dataset.BinaryClassification, 0},
	{"maxent", func() models.Spec { return models.MaxEntropy{Classes: 3, Reg: 0.001} }, dataset.MultiClassification, 3},
	{"poisson", func() models.Spec { return models.PoissonRegression{Reg: 0.001} }, dataset.Regression, 0},
	{"ppca", func() models.Spec { return models.NewPPCA(3) }, dataset.Unsupervised, 0},
}

// ladderAround returns contracts that mix early exits, searches, a changed
// δ, a floor, a warm start and a repeated pair around eps0 = ε₀(δ = 0.05).
func ladderAround(base Options, eps0 float64) []Options {
	at := func(eps, delta float64) Options {
		o := base
		o.Epsilon, o.Delta = math.Min(1, eps), delta
		return o
	}
	ladder := []Options{
		at(2*eps0, 0.05), // early exit
		at(eps0/2, 0.05), // search
		at(eps0/4, 0.05), // search, larger n
		at(eps0/2, 0.2),  // same ε, another δ
		at(eps0/2, 0.05), // the second one again
		at(1, 0.3),       // early exit at another δ
		at(eps0/3, 0.05),
		at(eps0/1.5, 0.05),
	}
	ladder[6].WarmStart = true
	ladder[7].MinSampleSize = 3 * base.InitialSampleSize
	return ladder
}

// TestPlanLadderMatchesOneShot: for every model family, dense and sparse,
// under every statistics method the family supports, a ladder of contracts
// answered (a) by one-shot TrainSourceContext calls, (b) by one Plan in
// ladder order, (c) by one Plan in reverse order — the final sample's prefix
// shrinks instead of growing — and (d) by one Plan from four goroutines at
// once lands on the same n, θ bits, ε̂ bits, probe sequence and spec state.
func TestPlanLadderMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	for _, c := range planFamilies {
		methods := []Method{ObservedFisher, InverseGradients}
		if _, ok := c.spec().(models.Hessianer); ok {
			methods = append(methods, ClosedForm)
		}
		sparse := sparseFixture(t, c.task, 700, 24, 4, c.classes, 7)
		for _, enc := range []struct {
			name string
			ds   *dataset.Dataset
		}{{"sparse", sparse}, {"dense", densified(sparse)}} {
			for _, method := range methods {
				t.Run(fmt.Sprintf("%s/%s/%v", c.name, enc.name, method), func(t *testing.T) {
					base := Options{Seed: 11, InitialSampleSize: 100, K: 16, Method: method}
					probe := base
					probe.Epsilon = 1
					first, err := TrainSourceContext(ctx, c.spec(), enc.ds, probe)
					if err != nil {
						t.Fatalf("ε₀ run: %v", err)
					}
					eps0 := first.Diag.InitialEpsilon
					if !(eps0 > 0 && eps0 <= 1) {
						t.Fatalf("fixture gives ε₀ = %v; the ladder needs it inside (0, 1]", eps0)
					}
					ladder := ladderAround(base, eps0)

					oneShot := make([]contractOutcome, len(ladder))
					exits, searches := 0, 0
					for i, o := range ladder {
						spec := c.spec()
						r, err := TrainSourceContext(ctx, spec, enc.ds, o)
						if err != nil {
							t.Fatalf("one-shot %d: %v", i, err)
						}
						if r.Diag.PlanReused {
							t.Fatalf("one-shot %d reports a reused plan", i)
						}
						oneShot[i] = outcomeOf(spec, r)
						if r.UsedInitialModel {
							exits++
						} else {
							searches++
						}
					}
					if exits < 2 || searches < 2 {
						t.Fatalf("ladder has %d early exits and %d searches; want both kinds", exits, searches)
					}

					env := NewEnv(enc.ds, base)
					through := func(name string, order []int, workers int) {
						plan, err := NewPlan(ctx, env, c.spec(), base)
						if err != nil {
							t.Fatalf("%s: NewPlan: %v", name, err)
						}
						reused := make([]bool, len(ladder))
						var wg sync.WaitGroup
						for w := 0; w < workers; w++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								// Worker w takes every workers-th contract, and with
								// several workers also the others' (rotated), so every
								// contract meets every other concurrently.
								for step := range order {
									i := order[(step+w*len(order)/workers)%len(order)]
									spec := c.spec()
									r, err := plan.Contract(ctx, spec, ladder[i])
									if err != nil {
										t.Errorf("%s: contract %d: %v", name, i, err)
										return
									}
									if out := outcomeOf(spec, r); !reflect.DeepEqual(out, oneShot[i]) {
										t.Errorf("%s: contract %d (ε=%v δ=%v)\n got %+v\nwant %+v", name, i, ladder[i].Epsilon, ladder[i].Delta, out, oneShot[i])
									}
									if w == 0 {
										reused[i] = r.Diag.PlanReused
										if r.Diag.PlanReused && (r.Diag.InitialTrain != 0 || r.Diag.Statistics != 0) {
											t.Errorf("%s: contract %d reuses the plan but reports build phases %v %v", name, i, r.Diag.InitialTrain, r.Diag.Statistics)
										}
									}
								}
							}()
						}
						wg.Wait()
						if workers == 1 {
							for step, i := range order {
								if reused[i] != (step > 0) {
									t.Errorf("%s: contract %d at step %d: PlanReused = %v", name, i, step, reused[i])
								}
							}
						}
					}
					forward := make([]int, len(ladder))
					backward := make([]int, len(ladder))
					for i := range ladder {
						forward[i], backward[i] = i, len(ladder)-1-i
					}
					through("in order", forward, 1)
					through("reversed", backward, 1)
					through("concurrent", forward, 4)
				})
			}
		}
	}
}

// TestContractsPinnedAtParent pins (n, θ fingerprint) of six fixed contracts
// as the commit before Plan existed computed them (TrainSourceContext at
// compute degree 1), so "bit-identical to the parent" is a test rather than
// a reading of the diff. The bits depend on the architecture's floating
// point only through fused multiply-adds, which Go emits on some
// architectures and not on amd64, where the table was captured — and on
// amd64 through the one the standard library makes itself: math.Exp takes
// an FMA branch where the CPU has FMA (and GODEBUG does not turn it off),
// with other bits. So each contract has a second column, captured with
// GODEBUG=cpu.fma=off, and math.Exp's bits at −0.2 pick the column.
func TestContractsPinnedAtParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints were captured on amd64")
	}
	fma := math.Float64bits(math.Exp(-0.2)) == 0x3fea330ad6166159 // 0x…615a off the FMA branch
	for _, c := range pinnedContracts(t) {
		t.Run(c.name, func(t *testing.T) {
			atDegree(t, 1)
			r, err := TrainSourceContext(context.Background(), c.spec, c.ds, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := c.noFMA
			if fma {
				want = c.fma
			}
			if got := ThetaFingerprint(r.Theta); r.SampleSize != want.n || got != want.theta {
				t.Fatalf("n = %d θ = %#x, the parent computed n = %d θ = %#x (math.Exp's FMA branch: %v)", r.SampleSize, got, want.n, want.theta, fma)
			}
		})
	}
}

type pinnedContract struct {
	name       string
	spec       models.Spec
	ds         *dataset.Dataset
	opt        Options
	fma, noFMA pinnedOutcome
}

// pinnedOutcome is a contract's sample size and θ fingerprint.
type pinnedOutcome struct {
	n     int
	theta uint64
}

func pinnedContracts(t *testing.T) []pinnedContract {
	higgs := datagen.Higgs(datagen.Config{Rows: 6000, Dim: 12, Seed: 3})
	sparse := func(task dataset.Task, classes int) *dataset.Dataset {
		return sparseFixture(t, task, 1500, 80, 6, classes, 7)
	}
	opt := func(eps float64, m Method) Options {
		return Options{Epsilon: eps, Seed: 11, InitialSampleSize: 200, K: 30, Method: m}
	}
	return []pinnedContract{
		{"logistic-higgs-search", models.LogisticRegression{Reg: 0.001}, higgs, Options{Epsilon: 0.03, Seed: 5, InitialSampleSize: 400},
			pinnedOutcome{3549, 0xc064b5eaca4ba8a}, pinnedOutcome{3549, 0xe63421646d4864e4}},
		{"logistic-higgs-exit", models.LogisticRegression{Reg: 0.001}, higgs, Options{Epsilon: 0.2, Delta: 0.1, Seed: 5, InitialSampleSize: 400},
			pinnedOutcome{400, 0xee56835c0dcd9b26}, pinnedOutcome{400, 0x95cd8294153d1874}},
		{"linear-sparse-closedform", models.LinearRegression{Reg: 0.001}, sparse(dataset.Regression, 0), opt(0.05, ClosedForm),
			pinnedOutcome{1299, 0x93e13e320074d218}, pinnedOutcome{1299, 0x93e13e320074d218}},
		{"maxent-dense-fisher", models.MaxEntropy{Classes: 3, Reg: 0.001}, densified(sparse(dataset.MultiClassification, 3)), opt(0.05, ObservedFisher),
			pinnedOutcome{1303, 0xf945a06ffcd5d360}, pinnedOutcome{1304, 0x75e22ba550ade647}},
		{"poisson-sparse-invgrad", models.PoissonRegression{Reg: 0.001}, sparse(dataset.Regression, 0), opt(0.05, InverseGradients),
			pinnedOutcome{1348, 0xba7d993926a37daf}, pinnedOutcome{1348, 0xbc2874dfcdf291bf}},
		{"ppca-dense-fisher", models.NewPPCA(3), densified(sparse(dataset.Unsupervised, 0)), opt(0.02, ObservedFisher),
			pinnedOutcome{1275, 0xb522effa75798227}, pinnedOutcome{1275, 0xb522effa75798227}},
	}
}
