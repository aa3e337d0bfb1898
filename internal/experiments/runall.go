package experiments

import (
	"fmt"
	"io"
)

// Runner executes one experiment and returns its tables.
type Runner struct {
	ID   string
	Desc string
	Run  func(scale Scale, seed int64) ([]*Table, error)
}

// Runners enumerates every reproducible figure/table in the paper's
// evaluation (paper §5). Each ID names its figure and, where the figure has
// one panel per workload, the workload; `blinkml-bench -list` prints them.
func Runners() []Runner {
	rs := []Runner{}
	for _, w := range Workloads() {
		w := w
		rs = append(rs, Runner{
			ID:   "fig5-" + w.ID,
			Desc: fmt.Sprintf("Figure 5 / Table 4 panel (%s, %s): speedups vs requested accuracy", w.ModelName, w.DataName),
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig5(w, scale, at(scale, 3, 5, 10), seed)
				return []*Table{t}, err
			},
		})
		rs = append(rs, Runner{
			ID:   "fig6-" + w.ID,
			Desc: fmt.Sprintf("Figure 6 / Table 5 panel (%s, %s): requested vs actual accuracy", w.ModelName, w.DataName),
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig6(w, scale, at(scale, 8, 15, 20), seed)
				return []*Table{t}, err
			},
		})
	}
	for _, id := range []string{"lin-power", "lr-criteo"} {
		id := id
		rs = append(rs, Runner{
			ID:   "fig7-" + id,
			Desc: fmt.Sprintf("Figure 7 / Tables 6-7 (%s): sample-size strategies", id),
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				w, err := WorkloadByID(id)
				if err != nil {
					return nil, err
				}
				a, b, err := RunFig7(w, scale, seed)
				return []*Table{a, b}, err
			},
		})
	}
	rs = append(rs,
		Runner{
			ID:   "fig8",
			Desc: "Figure 8 / Tables 8-9: dimension sweep (overhead, gen. error, iterations)",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				a, b, c, err := RunFig8(scale, seed)
				return []*Table{a, b, c}, err
			},
		},
		Runner{
			ID:   "fig9a",
			Desc: "Figure 9a: estimated/actual variance ratio per statistics method",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig9a(scale, seed)
				return []*Table{t}, err
			},
		},
		Runner{
			ID:   "fig9b",
			Desc: "Figure 9b: InverseGradients vs ObservedFisher cost/accuracy",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig9b(scale, seed)
				return []*Table{t}, err
			},
		},
		Runner{
			ID:   "fig10",
			Desc: "Figure 10: hyperparameter optimization",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig10(scale, seed, at(scale, 8, 15, 30))
				return []*Table{t}, err
			},
		},
		Runner{
			ID:   "fig11a",
			Desc: "Figure 11a: regularization vs estimated sample size",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig11a(scale, seed)
				return []*Table{t}, err
			},
		},
		Runner{
			ID:   "fig11b",
			Desc: "Figure 11b: number of parameters vs estimated sample size",
			Run: func(scale Scale, seed int64) ([]*Table, error) {
				t, err := RunFig11b(scale, seed)
				return []*Table{t}, err
			},
		},
	)
	return rs
}

// RunnerByID finds a runner.
func RunnerByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment at the given scale and streams the
// tables to w.
func RunAll(scale Scale, seed int64, w io.Writer) error {
	for _, r := range Runners() {
		fmt.Fprintf(w, "=== %s: %s\n\n", r.ID, r.Desc)
		tables, err := r.Run(scale, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return nil
}
