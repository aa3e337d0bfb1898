// Package loadgen is the open-loop load harness behind blinkml-bench -load:
// it drives a live blinkml-serve endpoint at an offered request rate (or a
// stepped QPS sweep), records latency against each request's *intended*
// start time, and reports tail quantiles, achieved vs offered QPS, error
// rate, and the maximum sustainable QPS under a latency SLO.
//
// The generator is open-loop on purpose. A closed-loop client (fixed
// concurrency, next request after the previous response) slows down exactly
// when the server does, silently dropping the requests that would have
// observed the stall — the coordinated-omission trap. Here arrival times
// are fixed up front by the schedule (constant-rate or Poisson), and when
// the server falls behind, queueing delay is charged to every late request:
// latency is measured from the intended start, not the actual send. A
// one-second server stall therefore inflates the recorded tail by the full
// backlog it caused, which is what a real user population would experience.
//
// The Clock seam exists so the correction is testable: with a fake clock
// and a deterministic stalling target, the inflated tail is exact.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blinkml/internal/obs"
)

// Clock abstracts time for the runner; the wall clock is used in production
// and a deterministic fake in tests.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// Arrival selects the open-loop arrival process.
type Arrival string

const (
	// Constant spaces intended starts exactly 1/QPS apart.
	Constant Arrival = "constant"
	// Poisson draws exponential inter-arrivals with mean 1/QPS (seeded, so
	// a schedule is reproducible).
	Poisson Arrival = "poisson"
)

// ParseArrival validates an arrival-process name.
func ParseArrival(s string) (Arrival, error) {
	switch Arrival(s) {
	case Constant, Poisson:
		return Arrival(s), nil
	case "":
		return Constant, nil
	}
	return "", fmt.Errorf("loadgen: unknown arrival process %q (want constant|poisson)", s)
}

// Target issues one request. Implementations must be safe for concurrent
// use; status is the HTTP status code (0 for transport-level failures).
type Target interface {
	Do(ctx context.Context) (status int, err error)
}

// Schedule precomputes the intended start offsets for an open-loop run of
// duration d at the offered rate qps.
func Schedule(qps float64, d time.Duration, arrival Arrival, seed int64) ([]time.Duration, error) {
	if !(qps > 0) || math.IsInf(qps, 1) {
		return nil, fmt.Errorf("loadgen: offered QPS must be positive and finite, got %g", qps)
	}
	if d <= 0 {
		return nil, fmt.Errorf("loadgen: step duration must be positive, got %v", d)
	}
	n := int(qps * d.Seconds())
	if n < 1 {
		n = 1
	}
	out := make([]time.Duration, n)
	switch arrival {
	case Constant, "":
		interval := float64(time.Second) / qps
		for i := range out {
			out[i] = time.Duration(float64(i) * interval)
		}
	case Poisson:
		rng := rand.New(rand.NewSource(seed))
		t := 0.0
		for i := range out {
			t += rng.ExpFloat64() / qps
			out[i] = time.Duration(t * float64(time.Second))
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q", arrival)
	}
	return out, nil
}

// StepConfig describes one offered-QPS step.
type StepConfig struct {
	// QPS is the offered request rate.
	QPS float64
	// Duration is the step length; QPS*Duration requests are scheduled.
	Duration time.Duration
	// Arrival is the arrival process (default Constant).
	Arrival Arrival
	// Seed seeds the Poisson schedule and any target-side randomness.
	Seed int64
	// MaxInflight bounds concurrent senders (default 64). It caps resource
	// use, not the schedule: when all senders are busy, intended start
	// times keep accumulating and the backlog is charged to latency.
	MaxInflight int
	// Clock defaults to the wall clock.
	Clock Clock
}

func (c StepConfig) withDefaults() StepConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Arrival == "" {
		c.Arrival = Constant
	}
	return c
}

// StepResult is one completed step of a load run — the JSON shape appended
// to BENCH_load.json.
type StepResult struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationS   float64 `json:"duration_s"`
	Sent        int     `json:"sent"`
	Errors      int     `json:"errors"`
	ErrorRate   float64 `json:"error_rate"`
	// Latency quantiles are coordinated-omission-safe: measured from each
	// request's intended start per the open-loop schedule.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// SLOLatencyMs is the observed latency at the sweep's SLO quantile;
	// SLOOK reports whether this step met the SLO (latency bound, error
	// rate, and achieved rate within 90% of offered).
	SLOLatencyMs float64 `json:"slo_latency_ms,omitempty"`
	SLOOK        bool    `json:"slo_ok"`

	// Hist carries the full latency histogram for programmatic consumers
	// (not serialized; the quantiles above are the durable record).
	Hist *obs.Histogram `json:"-"`
}

// TraceID is the deterministic per-request trace identity: schedule seed
// plus schedule index. Reproducible, so a recorded offender can be replayed
// by rerunning the same step.
func TraceID(seed int64, index int) string {
	return fmt.Sprintf("load-%x-%06d", uint64(seed), index)
}

// RunStep drives one open-loop step against target and reports the
// intended-start-based latency distribution.
func RunStep(ctx context.Context, target Target, cfg StepConfig) (*StepResult, error) {
	if target == nil {
		return nil, errors.New("loadgen: nil target")
	}
	cfg = cfg.withDefaults()
	offsets, err := Schedule(cfg.QPS, cfg.Duration, cfg.Arrival, cfg.Seed)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	hist := obs.NewHistogram()
	var next, sent, failed atomic.Int64
	start := clock.Now()
	workers := cfg.MaxInflight
	if workers > len(offsets) {
		workers = len(offsets)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				intended := start.Add(offsets[i])
				if d := intended.Sub(clock.Now()); d > 0 {
					clock.Sleep(d)
				}
				// Each request carries a trace ID derived from its schedule
				// index (stamped as X-Blinkml-Trace by the HTTP targets), so a
				// slow request in a server-side flight-record bundle maps back
				// to the exact point in the offered schedule that produced it.
				status, err := target.Do(obs.WithTrace(ctx, TraceID(cfg.Seed, i)))
				// Latency from the intended start: a late send (backlogged
				// schedule) charges its queueing delay to the tail.
				lat := clock.Now().Sub(intended)
				hist.Observe(float64(lat) / float64(time.Millisecond))
				sent.Add(1)
				if err != nil || status == 0 || status >= 400 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := clock.Now().Sub(start)
	if elapsed <= 0 {
		elapsed = cfg.Duration
	}
	n := int(sent.Load())
	res := &StepResult{
		OfferedQPS:  cfg.QPS,
		AchievedQPS: float64(n) / elapsed.Seconds(),
		DurationS:   elapsed.Seconds(),
		Sent:        n,
		Errors:      int(failed.Load()),
		P50Ms:       hist.Quantile(0.50),
		P95Ms:       hist.Quantile(0.95),
		P99Ms:       hist.Quantile(0.99),
		P999Ms:      hist.Quantile(0.999),
		Hist:        hist,
	}
	if n > 0 {
		res.ErrorRate = float64(res.Errors) / float64(n)
		res.MeanMs = hist.SumMs() / float64(n)
	}
	if ctx.Err() != nil && n < len(offsets) {
		return res, ctx.Err()
	}
	return res, nil
}

// SLO is the service-level objective a sweep evaluates each step against.
type SLO struct {
	// Quantile is the latency quantile the bound applies to (default 0.99).
	Quantile float64 `json:"quantile"`
	// LatencyMs is the latency bound at that quantile (default 250).
	LatencyMs float64 `json:"latency_ms"`
	// MaxErrorRate is the tolerated error fraction (default 0.01).
	MaxErrorRate float64 `json:"max_error_rate"`
}

// WithDefaults fills the zero fields.
func (s SLO) WithDefaults() SLO {
	if s.Quantile <= 0 || s.Quantile >= 1 {
		s.Quantile = 0.99
	}
	if s.LatencyMs <= 0 {
		s.LatencyMs = obs.DefaultSLOLatencyMs
	}
	if s.MaxErrorRate <= 0 {
		s.MaxErrorRate = 0.01
	}
	return s
}

// achievedFloor is the fraction of the offered rate the generator must
// actually sustain for a step to count as met: below it the server (or the
// harness) is saturated and the offered rate is fiction.
const achievedFloor = 0.9

// Meets evaluates one step against the SLO.
func (s SLO) Meets(r *StepResult) bool {
	return r.SLOLatencyMs <= s.LatencyMs &&
		r.ErrorRate <= s.MaxErrorRate &&
		r.AchievedQPS >= achievedFloor*r.OfferedQPS
}

// SweepConfig describes a stepped-QPS sweep.
type SweepConfig struct {
	// StepQPS are the offered rates, run in order (ascending for a max-
	// sustainable search).
	StepQPS []float64
	// StepDuration is the length of each step.
	StepDuration time.Duration
	Arrival      Arrival
	Seed         int64
	MaxInflight  int
	SLO          SLO
	Clock        Clock
	// OnStep, when non-nil, observes each finished step (progress output).
	OnStep func(StepResult)
}

// SweepResult is a completed sweep: every step plus the highest offered QPS
// that met the SLO (0 when none did).
type SweepResult struct {
	Arrival           Arrival      `json:"arrival"`
	SLO               SLO          `json:"slo"`
	Steps             []StepResult `json:"steps"`
	MaxSustainableQPS float64      `json:"max_sustainable_qps"`
}

// RunSweep runs each offered-QPS step in order and evaluates the SLO per
// step. Steps keep running after a failure — the shape of the degradation
// curve is the point of the sweep.
func RunSweep(ctx context.Context, target Target, cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.StepQPS) == 0 {
		return nil, errors.New("loadgen: sweep needs at least one QPS step")
	}
	slo := cfg.SLO.WithDefaults()
	out := &SweepResult{Arrival: cfg.Arrival, SLO: slo}
	if out.Arrival == "" {
		out.Arrival = Constant
	}
	for si, qps := range cfg.StepQPS {
		r, err := RunStep(ctx, target, StepConfig{
			QPS:         qps,
			Duration:    cfg.StepDuration,
			Arrival:     cfg.Arrival,
			Seed:        cfg.Seed + int64(si),
			MaxInflight: cfg.MaxInflight,
			Clock:       cfg.Clock,
		})
		if r != nil {
			r.SLOLatencyMs = r.Hist.Quantile(slo.Quantile)
			r.SLOOK = slo.Meets(r)
			out.Steps = append(out.Steps, *r)
			if r.SLOOK && qps > out.MaxSustainableQPS {
				out.MaxSustainableQPS = qps
			}
			if cfg.OnStep != nil {
				cfg.OnStep(*r)
			}
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
