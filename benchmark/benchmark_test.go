package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"blinkml/internal/core"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0.10, 10}, {0.11, 20}, {0.50, 50}, {0.90, 90}, {0.91, 100}, {1, 100}, {0, 10},
	} {
		if got := quantile(xs, tc.p); got != tc.want {
			t.Errorf("quantile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile([]float64{7}, 0.10); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := minOf([]float64{3, 1.5, 2}); got != 1.5 {
		t.Errorf("minOf = %v, want 1.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same inputs.
	for _, tc := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1.5, 9}, []float64{1.25, 3, 6.5}},
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, err := quartiles(tc.in)
		if got := []float64{q1, q2, q3}; err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("quartiles(%v) = %v, %v, want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range [][]float64{nil, {1}} {
		if _, _, _, err := quartiles(in); err == nil {
			t.Errorf("quartiles(%v): no error for fewer than two values", in)
		}
	}
}

func TestSearchN(t *testing.T) {
	probe := func(n int, ok bool) core.Probe { return core.Probe{N: n, Satisfied: ok} }
	for _, tc := range []struct {
		name   string
		probes []core.Probe
		want   int
	}{
		{"early exit keeps the chosen n", nil, 2000},
		{"smallest satisfied probe", []core.Probe{probe(2000, false), probe(50000, true), probe(26000, true), probe(14000, false), probe(20000, true)}, 20000},
		{"nothing satisfied below the pool", []core.Probe{probe(2000, false), probe(50000, false), probe(75000, false)}, 98000},
	} {
		if got := searchN(tc.probes, 2000, 98000); got != tc.want {
			t.Errorf("%s: searchN = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGateComparesRepeatedContracts(t *testing.T) {
	theta := map[int]uint64{0: 7, 1: 8, 2: 9}
	seen := make([]contractInfo, 3)
	op := gate(seen, func(k int) (contractInfo, error) {
		return contractInfo{n: []int{100 + k}, searchN: []int{50 * (k + 1)}, pool: []int{1000}, theta: []uint64{theta[k]}}, nil
	})
	for i := 0; i < 5; i++ { // contracts 0 1 2 0 1
		if err := op(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got, want := sampleFrac(seen), (0.05+0.10+0.15)/3; math.Abs(got-want) > 1e-15 {
		t.Errorf("sampleFrac = %v, want %v", got, want)
	}
	theta[2] = 10
	if err := op(5); err == nil {
		t.Error("contract 2 came back with another theta and passed the gate")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartMs: 0, EndMs: 100},
		{Name: "a", Parent: 0, StartMs: 10, EndMs: 40},  // nested child
		{Name: "a1", Parent: 1, StartMs: 15, EndMs: 25}, // grandchild: only a's self time shrinks
		{Name: "b", Parent: 0, StartMs: 30, EndMs: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, StartMs: 90, EndMs: 120}, // runs past the parent's end
	}
	want := []float64{100 - (30 + 20 + 10), 30 - 10, 10, 30, 30}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerParentsAndOps(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	endOp := tr.begin("op")
	endA := tr.begin("a")
	endA()
	tr.add("remote", tr.t0, 0)
	endOp()
	tr.nextOp()
	tr.begin("op")()
	var got []int
	for _, s := range tr.spans {
		got = append(got, s.Parent, s.Op)
	}
	if want := []int{-1, 1, 0, 1, 0, 1, -1, 2}; !slices.Equal(got, want) {
		t.Errorf("(parent, op) pairs = %v, want %v", got, want)
	}
	var nilTracer *tracer
	nilTracer.begin("x")() // the untraced run's path must be a no-op
}

// tiny shrinks a workload to test size without changing its shape: same
// generator, model, format and rung structure.
func tiny(w *workload) *workload {
	c := *w
	c.rows, c.dim, c.n0, c.predictRows = 6000, max(w.dim/5, 8), 400, min(w.predictRows, 500)
	c.contractOps, c.predictOps, c.warmups = 1, 1, 1
	c.rungs = slices.Clone(w.rungs)
	for i := range c.rungs {
		if c.rungs[i].minN > 0 {
			c.rungs[i].minN = 3000 + 500*i
		}
	}
	return &c
}

// hash fingerprints the generated inputs: labels, stored entries and the
// serialised text.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, x := range in.ds.X {
		put(math.Float64bits(in.ds.Y[i]))
		x.ForEach(func(j int, v float64) {
			put(uint64(j))
			put(math.Float64bits(v))
		})
	}
	h.Write(in.text)
	return h.Sum64()
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		hash := func(seed int64) uint64 {
			in, err := w.inputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			if (w.format != "") != (len(in.text) > 0) {
				t.Errorf("%s: format %q but %d serialised bytes", w.name, w.format, len(in.text))
			}
			return in.hash()
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: equal seeds gave different inputs", w.name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !slices.Equal(man.Command, want) {
		t.Errorf("command = %v, want %v", man.Command, want)
	}
	if want := []string{"benchmark"}; !slices.Equal(man.Paths, want) {
		t.Errorf("paths = %v, want %v", man.Paths, want)
	}
	if man.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, the op counts are sized for %d", man.RunSeconds, referenceSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, mw := range man.Workloads {
		if mw.Name != workloads[i].name || mw.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, mw.Name, mw.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(mw.Name) || len(mw.Why) > 200 || strings.Contains(mw.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", mw.Name)
		}
	}
	check := func(kind string, listed []manifestMetric, program []metric, bounded bool) {
		if len(listed) != len(program) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(listed), len(program))
		}
		for i, mm := range listed {
			if mm.Name != program[i].name || mm.Unit != program[i].unit {
				t.Errorf("%s %d: manifest has %s [%s], program reports %s [%s]", kind, i, mm.Name, mm.Unit, program[i].name, program[i].unit)
			}
			if !name.MatchString(mm.Name) || !unit.MatchString(mm.Unit) {
				t.Errorf("%s %s [%s]: name or unit outside the contract's character set", kind, mm.Name, mm.Unit)
			}
			if mm.Better != "lower" && mm.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, mm.Name, mm.Better)
			}
			if bounded && (mm.Bound <= 0 || mm.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, mm.Name, mm.Bound)
			}
			if !bounded && mm.Bound != 0 {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, mm.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric name %s used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestRunsReportEveryMetric drives every workload at test size through both
// modes: the untraced run must pass its correctness gate and print every
// end-to-end metric non-zero, the traced run every per-layer metric, with
// the staged contract landing on the coordinator's n and θ.
func TestRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			spanFile := ""
			if traced {
				spanFile = filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := run(w, 1, 1, traced, spanFile)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, m.name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, v.Value)
				}
			}
			if traced {
				if res.Metrics["core.staged_match"].Value != 1 {
					t.Errorf("%s: staged contract no longer lands on TrainSource's n and theta", w.name)
				}
				var dump struct {
					SelfMs map[string]float64 `json:"layer_self_ms"`
					Spans  []span             `json:"spans"`
				}
				if b, err := os.ReadFile(spanFile); err != nil {
					t.Errorf("%s: %v", w.name, err)
				} else if err := json.Unmarshal(b, &dump); err != nil || len(dump.Spans) == 0 || dump.SelfMs["blinkml.contract"] <= 0 {
					t.Errorf("%s: span file has %d spans, contract self time %v (%v)", w.name, len(dump.Spans), dump.SelfMs["blinkml.contract"], err)
				}
			}

			var out bytes.Buffer
			res.print(&out, w.name)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last output line is not the result object: %v", w.name, err)
			}
			for _, m := range want {
				if !strings.Contains(out.String(), w.name+" "+m.name+" ") {
					t.Errorf("%s: no `workload metric value unit` line for %s", w.name, m.name)
				}
			}
		}
	}
}

func TestSelfcheckReport(t *testing.T) {
	man := &manifest{
		Workloads: []manifestWorkload{{Name: "w"}},
		EndToEnd:  []manifestMetric{{Name: "t_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	set := func(vs ...float64) runSet { return runSet{"w": {"t_ms": vs}} }
	steady := set(100, 101, 102, 103, 104)
	for _, tc := range []struct {
		name    string
		second  runSet
		want    int
		wantErr bool
	}{
		{"same", steady, 0, false},
		{"faster", set(80, 81, 82, 83, 84), 0, false},
		{"median over bound", set(115, 116, 117, 118, 119), 1, false},
		{"spread over bound", set(80, 90, 100, 110, 120), 1, false},
		{"single run", set(100), 1, true},
		{"metric missing", runSet{"w": {"other_ms": {1, 2, 3}}}, 1, true},
		{"workload missing", runSet{}, 1, true},
	} {
		var out bytes.Buffer
		got, err := report(&out, man, []runSet{steady, tc.second})
		if got != tc.want || (err != nil) != tc.wantErr {
			t.Errorf("%s: status %d, error %v, want %d, error %v\n%s", tc.name, got, err, tc.want, tc.wantErr, out.String())
		}
	}
}
