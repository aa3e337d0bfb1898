// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, Appendix D): speedups (Fig 5 / Table 4), accuracy
// guarantees (Fig 6 / Table 5), sample-size-estimator comparisons (Fig 7 /
// Tables 6–7), dimension sweeps (Fig 8 / Tables 8–9), statistics-method
// studies (Fig 9), hyperparameter optimization (Fig 10) and model-
// complexity effects (Fig 11). Runners are deterministic in their seeds and
// parameterized by a Scale so the same shapes run in CI seconds or in
// minutes at full laptop scale.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// Scale selects how large the synthetic workloads are. The table shapes
// are identical across scales; only row counts and dimensions change.
type Scale int

const (
	// Small runs in seconds (unit tests, CI).
	Small Scale = iota
	// Medium runs in tens of seconds (go test -bench).
	Medium
	// Large approaches the paper's relative regime (cmd/blinkml-bench).
	Large
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return Small, fmt.Errorf("experiments: unknown scale %q (small|medium|large)", s)
	}
}

// Workload is one of the paper's eight (model, dataset) combinations.
type Workload struct {
	ID         string // e.g. "lin-gas"
	ModelName  string // "Lin", "LR", "ME", "PPCA"
	DataName   string // "Gas", ...
	Spec       func(s Scale) models.Spec
	Data       func(s Scale, seed int64) *dataset.Dataset
	Accuracies []float64 // the requested-accuracy axis of Figures 5–6
}

// glmAccuracies is the 80%–99% axis used for Lin/LR/ME.
var glmAccuracies = []float64{0.80, 0.85, 0.90, 0.95, 0.96, 0.97, 0.98, 0.99}

// ppcaAccuracies is the 90%–99.99% axis used for PPCA.
var ppcaAccuracies = []float64{0.90, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999}

// rowsAt scales a Small/Medium/Large row count.
func rowsAt(s Scale, small, medium, large int) int {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

// Workloads returns the paper's eight combinations (Table 2 pairings), on
// internal/datagen's synthetic stand-ins scaled to laptop size (the
// README's "paper-shaped synthetic workloads").
func Workloads() []Workload {
	const reg = 0.001 // the paper's default L2 coefficient (§5.1)
	return []Workload{
		{
			ID: "lin-gas", ModelName: "Lin", DataName: "Gas",
			Spec: func(Scale) models.Spec { return models.LinearRegression{Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Gas(datagen.Config{Rows: rowsAt(s, 8000, 150000, 400000), Dim: dimAt(s, 20, 57, 57), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "lin-power", ModelName: "Lin", DataName: "Power",
			Spec: func(Scale) models.Spec { return models.LinearRegression{Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Power(datagen.Config{Rows: rowsAt(s, 8000, 120000, 300000), Dim: dimAt(s, 30, 114, 114), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "lr-criteo", ModelName: "LR", DataName: "Criteo",
			Spec: func(Scale) models.Spec { return models.LogisticRegression{Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Criteo(datagen.Config{Rows: rowsAt(s, 10000, 150000, 400000), Dim: dimAt(s, 300, 300, 1000), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "lr-higgs", ModelName: "LR", DataName: "HIGGS",
			Spec: func(Scale) models.Spec { return models.LogisticRegression{Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Higgs(datagen.Config{Rows: rowsAt(s, 10000, 200000, 500000), Dim: dimAt(s, 15, 28, 28), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "me-mnist", ModelName: "ME", DataName: "MNIST",
			Spec: func(Scale) models.Spec { return models.MaxEntropy{Classes: 10, Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.MNIST(datagen.Config{Rows: rowsAt(s, 6000, 120000, 250000), Dim: dimAt(s, 36, 64, 196), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "me-yelp", ModelName: "ME", DataName: "Yelp",
			Spec: func(Scale) models.Spec { return models.MaxEntropy{Classes: 5, Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Yelp(datagen.Config{Rows: rowsAt(s, 6000, 80000, 150000), Dim: dimAt(s, 500, 1000, 5000), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "ppca-mnist", ModelName: "PPCA", DataName: "MNIST",
			Spec: func(s Scale) models.Spec { return models.NewPPCA(ppcaFactors(s)) },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.MNIST(datagen.Config{Rows: rowsAt(s, 6000, 120000, 250000), Dim: dimAt(s, 36, 64, 196), Seed: seed})
			},
			Accuracies: ppcaAccuracies,
		},
		{
			ID: "ppca-higgs", ModelName: "PPCA", DataName: "HIGGS",
			Spec: func(s Scale) models.Spec { return models.NewPPCA(ppcaFactors(s)) },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Higgs(datagen.Config{Rows: rowsAt(s, 10000, 200000, 500000), Dim: dimAt(s, 15, 28, 28), Seed: seed})
			},
			Accuracies: ppcaAccuracies,
		},
	}
}

func dimAt(s Scale, small, medium, large int) int {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

func ppcaFactors(s Scale) int {
	switch s {
	case Medium:
		return 8
	case Large:
		return 10 // the paper's q
	default:
		return 4
	}
}

// SparseWorkloads returns high-dimensional sparse variants of the Criteo
// and Yelp pairings: same generators and models, ambient dimension pushed
// to 10k (small) through 100k (large). The per-row activity of both
// generators is dimension-independent (~38 and ~45 stored entries), so
// density drops to a fraction of a percent and the runs exercise the CSR
// sample materialization and sparse statistics kernels end-to-end — shapes
// the dense path cannot touch (a single dense 100k-dim row is 800 KB).
func SparseWorkloads() []Workload {
	const reg = 0.001
	return []Workload{
		{
			ID: "lr-criteo-sparse", ModelName: "LR", DataName: "Criteo",
			Spec: func(Scale) models.Spec { return models.LogisticRegression{Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Criteo(datagen.Config{Rows: rowsAt(s, 10000, 150000, 400000), Dim: dimAt(s, 10000, 30000, 100000), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
		{
			ID: "me-yelp-sparse", ModelName: "ME", DataName: "Yelp",
			Spec: func(Scale) models.Spec { return models.MaxEntropy{Classes: 5, Reg: reg} },
			Data: func(s Scale, seed int64) *dataset.Dataset {
				return datagen.Yelp(datagen.Config{Rows: rowsAt(s, 6000, 80000, 150000), Dim: dimAt(s, 10000, 30000, 100000), Seed: seed})
			},
			Accuracies: glmAccuracies,
		},
	}
}

// WorkloadByID looks up a workload by id across the paper's eight
// combinations and the sparse variants.
func WorkloadByID(id string) (Workload, error) {
	for _, w := range Workloads() {
		if w.ID == id {
			return w, nil
		}
	}
	for _, w := range SparseWorkloads() {
		if w.ID == id {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("experiments: unknown workload %q", id)
}

// initialSampleSize returns n₀ per scale (the paper's default is 10K at
// cluster scale).
func initialSampleSize(s Scale) int {
	switch s {
	case Medium:
		return 1000
	case Large:
		return 2000
	default:
		return 300
	}
}

// paramSamples returns k, the Monte-Carlo parameter-sample count.
func paramSamples(s Scale) int {
	switch s {
	case Medium:
		return 100
	case Large:
		return 150
	default:
		return 60
	}
}

// Table is a printable result grid, one per paper table/figure panel.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (e.g. substitutions) printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Fprint writes the aligned table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
	}
	fmt.Fprintln(w)
	for i := range t.Columns {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s", widths[i]+2, cell)
			} else {
				fmt.Fprint(w, cell)
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pct(v float64) string      { return fmt.Sprintf("%.2f%%", 100*v) }
func secs(d float64) string     { return fmt.Sprintf("%.3fs", d) }
func ratioStr(v float64) string { return fmt.Sprintf("%.2fx", v) }
