// Command benchmark is the repository's one benchmark: four workloads that
// each take an (ε, δ) training contract and a predict request through
// set-up → contract phase → predict phase, report six end-to-end metrics
// from an untraced run and the per-layer metrics from a traced run, and
// check the program's outputs on the way. README.md in this directory
// explains every name and the noise rules; BENCHMARK.json at the repository
// root is the contract the numbers are gated on.
//
//	go run ./benchmark --workload lr-lowdim-mem --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"blinkml/internal/compute"
)

// tempPattern names the store / registry directories a run creates under
// its working directory and removes before it exits.
const tempPattern = ".benchmark-tmp-*"

// setupRepeats is how often a run executes the workload's set-up in fresh
// state; setup_s is the minimum. A single-shot set-up of identical work
// ranged 1.8–3.3 s over fresh processes on the build box, its minimum of
// five in-process repeats 1.28–1.43 s.
const setupRepeats = 5

// rounds is how many alternating slices the untraced run cuts its contract
// and predict phases into.
const rounds = 10

// The traced run's op counts at referenceSeconds: plain and traced contract
// ops (each), predict ops, and the ops of the degree-2 and instrumentation
// A/B probes.
const (
	tracedOps        = 10
	tracedPredictOps = 50
	degree2Ops       = 5
	boundOps         = 6
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run (required unless -selfcheck)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and of every contract")
	seconds := flag.Int("seconds", referenceSeconds, "run length the per-phase op counts are scaled to")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1: also write the recorded spans to this file")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of every workload at ten seeds and compare spreads and medians with the bounds in BENCHMARK.json; or compare the set files given as arguments")
	out := flag.String("out", "", "with -selfcheck: write set i's raw values to <out>.<i>.json")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck(os.Stdout, flag.Args(), *seconds, *out))
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace != 0, *spans)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, w.name)
}

// result is one run's report: the final JSON line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []metric
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(order []metric, values map[string]float64) *result {
	r := &result{Metrics: map[string]metricValue{}, order: order}
	for _, m := range order {
		r.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return r
}

// count adds a phase's ops to the attempted / failed totals.
func (r *result) count(p phase) {
	r.Attempted += len(p.ms)
	r.Failed += p.failed
}

// print writes one `workload metric value unit` line per metric and the
// result object as the last line.
func (r *result) print(w io.Writer, workload string) {
	for _, m := range r.order {
		fmt.Fprintf(w, "%s %s %v %s\n", workload, m.name, r.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "%s ops %d -\n%s failed_ops %d -\n", workload, r.Attempted, workload, r.Failed)
	b, _ := json.Marshal(r) // a map of floats and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

func setUp(w *workload, in *inputs) (instance, error) {
	if w.served() {
		return setUpServed(w, in)
	}
	return setUpInproc(w, in)
}

// gate turns a contract into a phase op with the identity check. Op i runs
// contract i mod len(seen); a contract that ran before must land on the
// same n and θ fingerprint bit for bit.
func gate(seen []contractInfo, contract func(k int) (contractInfo, error)) func(int) error {
	return func(i int) error {
		k := i % len(seen)
		info, err := contract(k)
		if err != nil {
			return err
		}
		if first := seen[k]; first.theta == nil {
			seen[k] = info
		} else if !slices.Equal(info.theta, first.theta) || !slices.Equal(info.n, first.n) {
			return fmt.Errorf("contract %d diverged: n %v theta %x, its first run had n %v theta %x", k, info.n, info.theta, first.n, first.theta)
		}
		return nil
	}
}

// sampleFrac is the mean over a phase's distinct contracts.
func sampleFrac(seen []contractInfo) float64 {
	var f float64
	for _, info := range seen {
		f += info.sampleFrac()
	}
	return f / float64(len(seen))
}

// run executes one workload at one seed. Kernel parallelism is pinned to
// degree 1 — the determinism contract's exact-serial order, so θ is
// bit-identical from op to op — while GOMAXPROCS stays at the machine's,
// leaving GC and the HTTP goroutines their own core.
func run(w *workload, seed int64, seconds int, traced bool, spanFile string) (res *result, err error) {
	compute.SetParallelism(1)
	in, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var inst instance
	setups := make([]float64, repeats)
	for i := range setups {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		setups[i] = timeIt(func() { inst, err = setUp(w, in) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()
	logf("%s seed %d: %d rows, set-ups %.0f ms", w.name, seed, in.ds.Len(), setups)

	if traced {
		return runTraced(inst, seconds, spanFile)
	}

	// The two phases alternate in slices, so that each samples the whole
	// run: the build box slows down by 10 % for seconds at a time, and a p10
	// only steps over a slow spell that does not cover its whole phase.
	n, m := ops(w.contractOps, seconds), ops(w.predictOps, seconds)
	seen := make([]contractInfo, distinct(n))
	contractOp := gate(seen, func(k int) (contractInfo, error) { return inst.contract(k, nil) })
	var contract, predict phase
	runtime.GC()
	for r := 0; r < rounds; r++ {
		contract.run(r*n/rounds, (r+1)*n/rounds, contractOp)
		if err := inst.preparePredict(); err != nil {
			return nil, err
		}
		predict.run(r*m/rounds, (r+1)*m/rounds, func(int) error { return inst.predict() })
	}

	res = newResult(endToEnd, map[string]float64{
		"setup_s":           minOf(setups) / 1e3,
		"contract_p10_ms":   contract.p(0.10),
		"contract_alloc_mb": contract.allocPerOp(1e6),
		"predict_p10_ms":    predict.p(0.10),
		"predict_alloc_kb":  predict.allocPerOp(1e3),
		"sample_frac":       sampleFrac(seen),
	})
	res.count(contract)
	res.count(predict)
	res.Attempted++
	if err := inst.verify(); err != nil {
		logf("%s: %v", w.name, err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced measures the per-layer metrics: plain and traced contract ops
// interleaved (their p10 ratio is the tracing overhead), a short predict
// phase, then whatever the instance probes below that.
func runTraced(inst instance, seconds int, spanFile string) (*result, error) {
	tr := newTracer()
	run := &tracedRun{tr: tr, seconds: seconds}
	// Contract k runs plain, then traced; both must land on the same n and θ.
	seen := make([]contractInfo, ops(tracedOps, seconds))
	plainOp := gate(seen, func(k int) (contractInfo, error) { return inst.contract(k, nil) })
	tracedOp := gate(seen, func(k int) (contractInfo, error) {
		tr.nextOp()
		return inst.contract(k, tr)
	})
	both := runPhase(2*len(seen), func(i int) error {
		if i%2 == 0 {
			return plainOp(i / 2)
		}
		return tracedOp(i / 2)
	})
	for i, t := range both.ms {
		side := &run.plain
		if i%2 == 1 {
			side = &run.traced
		}
		side.ms = append(side.ms, t)
	}
	if both.failed > 0 {
		return nil, errors.New("contract ops failed in the traced run")
	}
	if err := inst.preparePredict(); err != nil {
		return nil, err
	}
	run.predict = runPhase(ops(tracedPredictOps, seconds), func(int) error { return inst.predict() })

	m := map[string]float64{
		"blinkml.contract_p50_ms":     run.plain.p(0.50),
		"blinkml.contract_p90_ms":     run.plain.p(0.90),
		"blinkml.predict_p50_ms":      run.predict.p(0.50),
		"harness.trace_overhead_frac": run.traced.p(0.10)/run.plain.p(0.10) - 1,
	}
	if err := inst.layers(m, run); err != nil {
		return nil, err
	}
	if spanFile != "" {
		if err := writeSpans(spanFile, tr.spans); err != nil {
			return nil, err
		}
	}
	res := newResult(perLayer, m)
	res.count(both)
	res.count(run.predict)
	res.Correct = res.Failed == 0
	return res, nil
}
