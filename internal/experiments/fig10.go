package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// RunFig10 regenerates Figure 10: random-search hyperparameter optimization
// with BlinkML's 95%-accurate models versus full-model training. Both sides
// walk the same sequence of (feature subset, regularization coefficient)
// configurations; the table reports cumulative time and best test accuracy
// after each step. The paper's headline — BlinkML evaluates orders of
// magnitude more configurations per unit time — shows up as the cumulative-
// time ratio.
func RunFig10(scale Scale, seed int64, steps int) (*Table, error) {
	if steps <= 0 {
		steps = 8
	}
	// The pool must be large enough that full training dwarfs the estimator
	// overhead — that asymmetry is the entire point of the figure.
	rows := rowsAt(scale, 40000, 100000, 250000)
	dim := dimAt(scale, 300, 1000, 5000)
	ds := datagen.Criteo(datagen.Config{Rows: rows, Dim: dim, Seed: seed})
	base := core.Options{
		Epsilon:           0.05,
		Delta:             0.05,
		Seed:              seed,
		InitialSampleSize: initialSampleSize(scale),
		K:                 paramSamples(scale),
		TestFraction:      0.15,
	}
	rng := stat.NewRNG(seed + 0xF10)

	t := &Table{
		Title:   "Figure 10 — hyperparameter optimization: BlinkML (95% models) vs full training",
		Columns: []string{"Step", "Features", "Reg", "BlinkTime(cum)", "BlinkBestAcc", "FullTime(cum)", "FullBestAcc"},
		Notes:   []string{"both sides evaluate the identical random configuration sequence"},
	}
	var blinkCum, fullCum time.Duration
	blinkBest, fullBest := 0.0, 0.0
	for step := 1; step <= steps; step++ {
		// Random config: keep a random feature fraction, log-uniform reg.
		keepFrac := 0.3 + 0.7*rng.Float64()
		reg := math.Pow(10, -5+5*rng.Float64())
		masked := maskFeatures(ds, keepFrac, rng.Split())
		spec := models.LogisticRegression{Reg: reg}
		env := core.NewEnv(masked, base)

		start := time.Now()
		approx, err := env.TrainApproxContext(context.Background(), spec, base)
		if err != nil {
			return nil, fmt.Errorf("fig10 step %d blinkml: %w", step, err)
		}
		blinkCum += time.Since(start)
		if acc := models.Accuracy(spec, approx.Theta, env.Test()); acc > blinkBest {
			blinkBest = acc
		}

		start = time.Now()
		full, err := env.TrainFull(spec, base.Optimizer)
		if err != nil {
			return nil, fmt.Errorf("fig10 step %d full: %w", step, err)
		}
		fullCum += time.Since(start)
		if acc := models.Accuracy(spec, full.Theta, env.Test()); acc > fullBest {
			fullBest = acc
		}

		t.AddRow(
			fmt.Sprintf("%d", step),
			fmt.Sprintf("%.0f%%", 100*keepFrac),
			fmt.Sprintf("%.1e", reg),
			secs(blinkCum.Seconds()),
			pct(blinkBest),
			secs(fullCum.Seconds()),
			pct(fullBest),
		)
	}
	return t, nil
}

// maskFeatures zeroes out a random (1−keepFrac) subset of feature columns,
// preserving the ambient dimension so models stay comparable. Sparse rows
// stay sparse.
func maskFeatures(ds *dataset.Dataset, keepFrac float64, rng *stat.RNG) *dataset.Dataset {
	keep := make([]bool, ds.Dim)
	for j := range keep {
		keep[j] = rng.Float64() < keepFrac
	}
	keep[0] = true // never drop the bias feature
	out := &dataset.Dataset{
		Dim:        ds.Dim,
		Task:       ds.Task,
		NumClasses: ds.NumClasses,
		Name:       ds.Name + "-masked",
		Y:          ds.Y,
	}
	out.X = make([]dataset.Row, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		switch r := ds.X[i].(type) {
		case *dataset.SparseRow:
			idx := make([]int32, 0, len(r.Idx))
			val := make([]float64, 0, len(r.Val))
			for k, j := range r.Idx {
				if keep[j] {
					idx = append(idx, j)
					val = append(val, r.Val[k])
				}
			}
			out.X[i] = &dataset.SparseRow{N: ds.Dim, Idx: idx, Val: val}
		default:
			row := make(dataset.DenseRow, ds.Dim)
			r.ForEach(func(j int, v float64) {
				if keep[j] {
					row[j] = v
				}
			})
			out.X[i] = row
		}
	}
	return out
}
