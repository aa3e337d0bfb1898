package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSet is one set of untraced runs: workload → metric → one value per
// seed.
type runSet map[string]map[string][]float64

// selfcheckSeeds and selfcheckSets are the driver's procedure: two sets of
// runs, each workload once at every seed 1..selfcheckSeeds.
const (
	selfcheckSeeds = 10
	selfcheckSets  = 2
)

// quartiles are the cut points Python's statistics.quantiles(values, n=4)
// returns (its default, exclusive method) — what the driver computes. Like
// it, they need two values.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least two values, have %d", n)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// measureSet runs this binary once per workload and seed, the way the
// driver does: a fresh process each.
func measureSet(seconds int) (runSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, w := range workloads {
		set[w.name] = map[string][]float64{}
		for seed := 1; seed <= selfcheckSeeds; seed++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line: %w", w.name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				set[w.name][name] = append(set[w.name][name], v.Value)
			}
		}
	}
	return set, nil
}

// runSelfcheck measures (or loads) the sets and prints, per workload and
// end-to-end metric, each set's spread (q3−q1 over the median) and the
// worsening of every later set's median against the first, next to the
// metric's bound. It returns 1 when a spread (setup_s excepted, as for the
// driver) or a worsening exceeds its bound.
func runSelfcheck(w io.Writer, files []string, seconds int, out string) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		logf("selfcheck: %v (run from the repository root)", err)
		return 1
	}
	var sets []runSet
	for _, f := range files {
		var set runSet
		b, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(b, &set)
		}
		if err != nil {
			logf("selfcheck: %s: %v", f, err)
			return 1
		}
		sets = append(sets, set)
	}
	for i := 0; len(files) == 0 && i < selfcheckSets; i++ {
		set, err := measureSet(seconds)
		if err != nil {
			logf("selfcheck: %v", err)
			return 1
		}
		sets = append(sets, set)
		if out != "" {
			b, _ := json.Marshal(set) // floats and strings only
			if err := os.WriteFile(fmt.Sprintf("%s.%d.json", out, i+1), b, 0o644); err != nil {
				logf("selfcheck: %v", err)
				return 1
			}
		}
	}
	if len(sets) < 2 {
		logf("selfcheck: need two sets to compare")
		return 1
	}
	status, err := report(w, man, sets)
	if err != nil {
		logf("selfcheck: %v", err)
		return 1
	}
	return status
}

// report prints the table and returns 1 when a bound is exceeded. A set
// that lacks a workload or a metric of the manifest is an error.
func report(w io.Writer, man *manifest, sets []runSet) (status int, err error) {
	fmt.Fprint(w, "| workload | metric | bound | median (set 1) |")
	for i := range sets {
		fmt.Fprintf(w, " spread %d |", i+1)
	}
	for i := range sets[1:] {
		fmt.Fprintf(w, " worsening %d vs 1 |", i+2)
	}
	fmt.Fprint(w, " verdict |\n|---|---|---|---|")
	for i := 0; i < 2*len(sets)-1; i++ {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w, "---|")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			// Per set: q1, median, q3.
			qs := make([][3]float64, len(sets))
			for i, set := range sets {
				q1, med, q3, err := quartiles(set[wl.Name][m.Name])
				if err != nil {
					return 1, fmt.Errorf("set %d, %s %s: %w", i+1, wl.Name, m.Name, err)
				}
				qs[i] = [3]float64{q1, med, q3}
			}
			med1 := qs[0][1]
			fmt.Fprintf(w, "| %s | %s | %.3f | %.5g %s |", wl.Name, m.Name, m.Bound, med1, m.Unit)
			verdict := "ok"
			for _, q := range qs {
				spread := (q[2] - q[0]) / q[1]
				fmt.Fprintf(w, " %.4f |", spread)
				switch {
				case m.Name == "setup_s":
				case spread > m.Bound:
					verdict = "SPREAD OVER BOUND"
					status = 1
				case spread > m.Bound/3 && verdict == "ok":
					verdict = "spread over bound/3"
				}
			}
			for _, q := range qs[1:] {
				worse := (q[1] - med1) / med1
				if m.Better == "higher" {
					worse = -worse
				}
				fmt.Fprintf(w, " %+.4f |", worse)
				if worse > m.Bound {
					verdict = "MEDIAN WORSE THAN BOUND"
					status = 1
				}
			}
			fmt.Fprintf(w, " %s |\n", verdict)
		}
	}
	return status, nil
}
