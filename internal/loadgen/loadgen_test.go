package loadgen

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic manual clock: Sleep advances time instantly.
// With MaxInflight 1 every step run is fully sequential, so recorded
// latencies are exact functions of the schedule and the target's service
// times.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fakeTarget serves request i by advancing the fake clock by service(i) —
// a zero-network in-process server model.
type fakeTarget struct {
	clock   *fakeClock
	mu      sync.Mutex
	calls   int
	service func(i int) time.Duration
	status  func(i int) int
}

func (t *fakeTarget) Do(ctx context.Context) (int, error) {
	t.mu.Lock()
	i := t.calls
	t.calls++
	t.mu.Unlock()
	t.clock.Sleep(t.service(i))
	if t.status != nil {
		return t.status(i), nil
	}
	return 200, nil
}

func TestScheduleConstantAndPoisson(t *testing.T) {
	offs, err := Schedule(100, time.Second, Constant, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 100 {
		t.Fatalf("constant schedule length = %d, want 100", len(offs))
	}
	if offs[0] != 0 || offs[10] != 100*time.Millisecond {
		t.Fatalf("constant offsets wrong: [0]=%v [10]=%v", offs[0], offs[10])
	}

	p1, err := Schedule(100, time.Second, Poisson, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Schedule(100, time.Second, Poisson, 7)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("poisson schedule not deterministic in seed at %d", i)
		}
	}
	if !sort.SliceIsSorted(p1, func(i, j int) bool { return p1[i] < p1[j] }) {
		t.Fatal("poisson offsets must be non-decreasing")
	}
	// Mean inter-arrival over 100 draws should be near 10ms (law of large
	// numbers; seeded, so the tolerance is stable).
	mean := p1[len(p1)-1].Seconds() / float64(len(p1))
	if mean < 0.005 || mean > 0.02 {
		t.Fatalf("poisson mean inter-arrival = %gs, want ~0.01s", mean)
	}

	if _, err := Schedule(0, time.Second, Constant, 1); err == nil {
		t.Fatal("zero QPS must error")
	}
	if _, err := Schedule(10, time.Second, "weird", 1); err == nil {
		t.Fatal("unknown arrival must error")
	}
}

// TestScheduleRejectsNonFiniteQPS: "qps <= 0" is false for NaN, and a NaN
// rate used to yield one offset of -2562047h47m16s, +Inf one of 0s.
func TestScheduleRejectsNonFiniteQPS(t *testing.T) {
	for _, qps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		for _, arrival := range []Arrival{Constant, Poisson} {
			if offs, err := Schedule(qps, time.Second, arrival, 1); err == nil {
				t.Errorf("Schedule(%v, 1s, %s) = %v, want an error", qps, arrival, offs)
			}
		}
	}
}

// TestRecorderQuantileAccuracy feeds a known latency distribution through
// the full open-loop recorder (unloaded: inter-arrival far above service
// time, so recorded latency == service time) and checks the histogram
// quantiles against the exact empirical ones within the geometric-bucket
// resolution (~41% relative error plus interpolation).
func TestRecorderQuantileAccuracy(t *testing.T) {
	clock := newFakeClock()
	// Deterministic long-tailed distribution on [1, 1000] ms:
	// service(i) = 1000 / (1 + 999*u) with u uniform via a seeded LCG —
	// anything reproducible with a computable empirical quantile works.
	lat := make([]float64, 2000)
	x := uint64(42)
	for i := range lat {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / float64(1<<53)
		lat[i] = 1 + 999*u*u // quadratic: dense head, long tail
	}
	target := &fakeTarget{clock: clock, service: func(i int) time.Duration {
		return time.Duration(lat[i] * float64(time.Millisecond))
	}}
	// 0.2 QPS => 5s inter-arrival >> max 1s service: zero queueing.
	res, err := RunStep(context.Background(), target, StepConfig{
		QPS:         0.2,
		Duration:    time.Duration(len(lat)) * 5 * time.Second,
		Arrival:     Constant,
		MaxInflight: 1,
		Clock:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != len(lat) {
		t.Fatalf("sent %d, want %d", res.Sent, len(lat))
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	exact := func(q float64) float64 { return sorted[int(q*float64(len(sorted)))-1] }
	for _, tc := range []struct {
		name     string
		got, ref float64
	}{
		{"p50", res.P50Ms, exact(0.50)},
		{"p95", res.P95Ms, exact(0.95)},
		{"p99", res.P99Ms, exact(0.99)},
	} {
		ratio := tc.got / tc.ref
		if math.IsNaN(ratio) || ratio < 0.55 || ratio > 1.8 {
			t.Errorf("%s = %.2fms vs exact %.2fms (ratio %.2f) outside bucket resolution", tc.name, tc.got, tc.ref, ratio)
		}
	}
	// The mean is tracked exactly (sum is not bucketed).
	var sum float64
	for _, v := range lat {
		sum += v
	}
	if got, want := res.MeanMs, sum/float64(len(lat)); math.Abs(got-want) > 1e-6 {
		t.Errorf("mean = %v, want %v exactly", got, want)
	}
	if res.Errors != 0 || res.ErrorRate != 0 {
		t.Errorf("unexpected errors: %+v", res)
	}
}

// TestCoordinatedOmissionCorrection: a server that stalls 1s on the first
// request then serves in 1ms must inflate the *recorded* tail by the whole
// backlog. A closed-loop recorder (latency from actual send time) would
// report ~1ms for everything but the first request; the open-loop recorder
// charges every queued request its wait from the intended start.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	clock := newFakeClock()
	const serviceMs = 1.0
	target := &fakeTarget{clock: clock, service: func(i int) time.Duration {
		if i == 0 {
			return time.Second // the stall
		}
		return time.Duration(serviceMs * float64(time.Millisecond))
	}}
	// 100 QPS for 1s: arrivals every 10ms; the 1s stall backs up the whole
	// schedule. Request k (k>=1) starts at 1000+(k-1)*1ms but was intended
	// at 10k ms => latency 1000+k-10k-? — deterministic; min latency is
	// ~109ms at k=99, max 1000ms at k=0.
	res, err := RunStep(context.Background(), target, StepConfig{
		QPS:         100,
		Duration:    time.Second,
		Arrival:     Constant,
		MaxInflight: 1,
		Clock:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 100 {
		t.Fatalf("sent %d, want 100", res.Sent)
	}
	// Exact latencies: k=0 -> 1000ms; k>=1 -> (1000 + k*1) - 10k = 1000-9k.
	// So min = 1000-9*99 = 109ms, median ~ 1000-9*50 = 550ms.
	if res.P50Ms < 300 {
		t.Errorf("p50 = %.1fms; coordinated-omission correction lost the backlog (service time is %gms)", res.P50Ms, serviceMs)
	}
	if res.P99Ms < 700 {
		t.Errorf("p99 = %.1fms, want near the 1000ms stall", res.P99Ms)
	}
	// The exact mean survives bucketing: sum = 1000 + Σ_{k=1..99} (1000-9k)
	wantMean := (1000.0 + (99*1000.0 - 9*99*100/2)) / 100.0
	if math.Abs(res.MeanMs-wantMean) > 1e-6 {
		t.Errorf("mean = %vms, want exactly %vms", res.MeanMs, wantMean)
	}
	// Achieved rate reflects the stall: 100 requests in ~1.1s < offered.
	if res.AchievedQPS >= res.OfferedQPS {
		t.Errorf("achieved %.1f >= offered %.1f under a stalled server", res.AchievedQPS, res.OfferedQPS)
	}
}

// TestSweepFindsMaxSustainableQPS: with a fixed 5ms service time and one
// sender, capacity is 200 QPS. Steps at 50/100/400 must pass, pass, fail
// the SLO, yielding max sustainable 100.
func TestSweepFindsMaxSustainableQPS(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{clock: clock, service: func(i int) time.Duration {
		return 5 * time.Millisecond
	}}
	sweep, err := RunSweep(context.Background(), target, SweepConfig{
		StepQPS:      []float64{50, 100, 400},
		StepDuration: 2 * time.Second,
		Arrival:      Constant,
		MaxInflight:  1,
		SLO:          SLO{Quantile: 0.99, LatencyMs: 50, MaxErrorRate: 0.01},
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(sweep.Steps))
	}
	for i, wantOK := range []bool{true, true, false} {
		if sweep.Steps[i].SLOOK != wantOK {
			t.Errorf("step %d (%.0f qps) slo_ok = %v, want %v: %+v",
				i, sweep.Steps[i].OfferedQPS, sweep.Steps[i].SLOOK, wantOK, sweep.Steps[i])
		}
	}
	if sweep.MaxSustainableQPS != 100 {
		t.Errorf("max sustainable = %.0f, want 100", sweep.MaxSustainableQPS)
	}
	// Offered steps are recorded monotone, as given.
	for i := 1; i < len(sweep.Steps); i++ {
		if sweep.Steps[i].OfferedQPS <= sweep.Steps[i-1].OfferedQPS {
			t.Errorf("steps not monotone at %d", i)
		}
	}
}

// TestStepErrorsCounted: non-2xx statuses and transport failures count
// toward the error rate the SLO gate uses.
func TestStepErrorsCounted(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{
		clock:   clock,
		service: func(i int) time.Duration { return time.Millisecond },
		status: func(i int) int {
			if i%4 == 3 {
				return 503
			}
			return 200
		},
	}
	res, err := RunStep(context.Background(), target, StepConfig{
		QPS: 100, Duration: time.Second, MaxInflight: 1, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 25 || math.Abs(res.ErrorRate-0.25) > 1e-9 {
		t.Fatalf("errors = %d rate %.3f, want 25 / 0.25", res.Errors, res.ErrorRate)
	}
	if (SLO{MaxErrorRate: 0.01}.WithDefaults()).Meets(res) {
		t.Fatal("25% error rate must fail the SLO")
	}
}

// TestAppendRunAccumulates: the BENCH_load.json trajectory grows one run
// per invocation and round-trips.
func TestAppendRunAccumulates(t *testing.T) {
	path := t.TempDir() + "/BENCH_load.json"
	sweep := &SweepResult{
		Arrival:           Constant,
		SLO:               SLO{}.WithDefaults(),
		Steps:             []StepResult{{OfferedQPS: 100, AchievedQPS: 99, Sent: 500, P50Ms: 1, P99Ms: 2, SLOOK: true}},
		MaxSustainableQPS: 100,
	}
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		if err := AppendRun(path, NewRun("/v1/models/{id}/predict", "m-1", 4, sweep, at)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ReadLoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(f.Runs))
	}
	r := f.Runs[1]
	if r.Endpoint != "/v1/models/{id}/predict" || r.ModelID != "m-1" || r.Batch != 4 {
		t.Fatalf("run round-trip lost fields: %+v", r)
	}
	if r.Env.GoVersion == "" || r.Env.NumCPU <= 0 || r.Env.GOMAXPROCS <= 0 {
		t.Fatalf("env stanza incomplete: %+v", r.Env)
	}
	if r.Timestamp != "2026-08-07T12:00:00Z" {
		t.Fatalf("timestamp = %q", r.Timestamp)
	}
	if len(r.Steps) != 1 || r.Steps[0].OfferedQPS != 100 {
		t.Fatalf("steps lost: %+v", r.Steps)
	}
}
