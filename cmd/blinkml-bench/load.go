// Load mode: blinkml-bench -load points the open-loop generator at a live
// blinkml-serve instance and appends the sweep to BENCH_load.json. See
// internal/loadgen for why the harness is open-loop (coordinated omission).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blinkml/internal/loadgen"
)

// loadFlags are registered alongside the experiment flags in main; they only
// take effect under -load.
type loadFlags struct {
	addr        *string
	model       *string
	endpoint    *string
	qps         *string
	stepDur     *time.Duration
	arrival     *string
	batch       *int
	maxInflight *int
	sloMs       *float64
	sloQuantile *float64
	sloMaxErr   *float64
	out         *string
}

func registerLoadFlags() *loadFlags {
	return &loadFlags{
		addr:        flag.String("addr", "http://localhost:8080", "blinkml-serve base URL for -load"),
		model:       flag.String("model", "", "model id to predict against (default: first registered model)"),
		endpoint:    flag.String("endpoint", "predict", "load target: predict | train"),
		qps:         flag.String("qps", "100,200,400,800", "comma-separated offered QPS steps for the sweep"),
		stepDur:     flag.Duration("step-duration", 5*time.Second, "duration of each offered-QPS step"),
		arrival:     flag.String("arrival", "constant", "arrival process: constant | poisson"),
		batch:       flag.Int("batch", 1, "rows per predict request"),
		maxInflight: flag.Int("max-inflight", 64, "max concurrent in-flight requests (the schedule is open-loop regardless)"),
		sloMs:       flag.Float64("slo-ms", 0, "SLO latency bound in ms at -slo-quantile (0 = default 250)"),
		sloQuantile: flag.Float64("slo-quantile", 0, "SLO latency quantile (0 = default 0.99)"),
		sloMaxErr:   flag.Float64("slo-max-errors", 0, "SLO max error fraction (0 = default 0.01)"),
		out:         flag.String("load-out", "BENCH_load.json", "append the sweep record to this file (\"-\" = stdout only)"),
	}
}

// parseQPSSteps parses "100,200,400" into offered rates.
func parseQPSSteps(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("bad QPS step %q (want a positive finite number)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-qps %q has no steps", s)
	}
	return out, nil
}

// sloFromFlags builds the sweep's SLO from the -slo-* flags. A zero or
// negative value takes the default; a non-finite one is refused, since a NaN
// bound fails SLO.Meets at every step.
func sloFromFlags(latencyMs, quantile, maxErrors float64) (loadgen.SLO, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-slo-ms", latencyMs}, {"-slo-quantile", quantile}, {"-slo-max-errors", maxErrors}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return loadgen.SLO{}, fmt.Errorf("%s %v is not a finite number", f.name, f.v)
		}
	}
	return loadgen.SLO{Quantile: quantile, LatencyMs: latencyMs, MaxErrorRate: maxErrors}.WithDefaults(), nil
}

// runLoad executes the -load sweep end to end.
func runLoad(lf *loadFlags, seed int64) error {
	steps, err := parseQPSSteps(*lf.qps)
	if err != nil {
		return err
	}
	slo, err := sloFromFlags(*lf.sloMs, *lf.sloQuantile, *lf.sloMaxErr)
	if err != nil {
		return err
	}
	arrival, err := loadgen.ParseArrival(*lf.arrival)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*lf.addr, "/")

	var (
		target   loadgen.Target
		endpoint string
		modelID  string
		batch    int
	)
	switch *lf.endpoint {
	case "predict":
		t, err := loadgen.NewPredictTarget(base, *lf.model, *lf.batch, seed, *lf.maxInflight)
		if err != nil {
			return err
		}
		target = t
		endpoint = "/v1/models/{id}/predict"
		modelID = t.ModelID
		batch = t.Batch
	case "train":
		t, err := loadgen.NewTrainTarget(base, seed, *lf.maxInflight)
		if err != nil {
			return err
		}
		target = t
		endpoint = "/v1/train"
	default:
		return fmt.Errorf("unknown -endpoint %q (want predict|train)", *lf.endpoint)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr,
		"blinkml-bench: load sweep against %s%s (%s arrival, %v/step, SLO p%g <= %gms, err <= %g%%)\n",
		base, endpoint, arrival, *lf.stepDur, 100*slo.Quantile, slo.LatencyMs, 100*slo.MaxErrorRate)

	sweep, err := loadgen.RunSweep(ctx, target, loadgen.SweepConfig{
		StepQPS:      steps,
		StepDuration: *lf.stepDur,
		Arrival:      arrival,
		Seed:         seed,
		MaxInflight:  *lf.maxInflight,
		SLO:          slo,
		OnStep: func(r loadgen.StepResult) {
			verdict := "FAIL"
			if r.SLOOK {
				verdict = "ok"
			}
			fmt.Fprintf(os.Stderr,
				"  %8.0f QPS offered: achieved %8.1f  p50 %7.2fms  p99 %7.2fms  errs %d/%d  [%s]\n",
				r.OfferedQPS, r.AchievedQPS, r.P50Ms, r.P99Ms, r.Errors, r.Sent, verdict)
		},
	})
	if sweep != nil && len(sweep.Steps) > 0 {
		run := loadgen.NewRun(endpoint, modelID, batch, sweep, time.Now())
		if *lf.out != "" && *lf.out != "-" {
			if aerr := loadgen.AppendRun(*lf.out, run); aerr != nil {
				return aerr
			}
			fmt.Fprintf(os.Stderr, "blinkml-bench: appended sweep (%d steps, max sustainable %.0f QPS) to %s\n",
				len(sweep.Steps), sweep.MaxSustainableQPS, *lf.out)
		} else {
			fmt.Fprintf(os.Stderr, "blinkml-bench: max sustainable %.0f QPS\n", sweep.MaxSustainableQPS)
		}
	}
	return err
}
