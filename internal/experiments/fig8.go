package experiments

import (
	"context"
	"fmt"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/models"
)

// fig8Dims returns the number-of-features axis of Figure 8 per scale
// (the paper sweeps 100 → 998K on Criteo; rows stay sparse so the axis is
// CLI-scalable); Figure 11b sweeps its number of parameters over the same
// axis.
func fig8Dims(s Scale) []int {
	return at(s, []int{50, 100, 200, 400}, []int{100, 500, 1000, 5000}, []int{100, 500, 1000, 5000, 10000, 50000, 100000})
}

// RunFig8 regenerates Figure 8 / Tables 8–9: for LR on a Criteo-like
// workload swept over the number of features it reports (a) BlinkML's
// runtime breakdown vs full training, (b) generalization errors with the
// Lemma-1 predicted bound, and (c) optimizer iteration counts.
func RunFig8(scale Scale, seed int64) (overhead, genErr, iters *Table, err error) {
	rows := at(scale, 10000, 40000, 100000)
	spec := models.LogisticRegression{Reg: 0.001}
	base := core.Options{
		Epsilon:           0.05, // the paper trains 95%-accurate models here
		Delta:             0.05,
		Seed:              seed,
		InitialSampleSize: initialSampleSize(scale),
		K:                 paramSamples(scale),
		TestFraction:      0.15,
	}

	overhead = &Table{
		Title:   "Figure 8a / Table 8 — runtime breakdown vs number of features (LR, Criteo-like)",
		Columns: []string{"Features", "InitTrain", "Statistics", "SizeSearch", "FinalTrain", "BlinkML", "Full", "Ratio"},
	}
	genErr = &Table{
		Title:   "Figure 8b / Table 9 — generalization error vs number of features",
		Columns: []string{"Features", "FullGenErr", "BlinkMLGenErr", "PredictedBound", "BoundHolds"},
		Notes:   []string{"PredictedBound = εg + ε − εg·ε (Lemma 1) with ε = 0.05"},
	}
	iters = &Table{
		Title:   "Figure 8c / Table 9 — optimizer iterations vs number of features",
		Columns: []string{"Features", "Full", "BlinkML"},
	}

	for _, d := range fig8Dims(scale) {
		ds := datagen.Criteo(datagen.Config{Rows: rows, Dim: d, Seed: seed})
		env := core.NewEnv(ds, base)
		full, err := env.TrainFull(spec, base.Optimizer)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fig8 d=%d full: %w", d, err)
		}
		res, err := env.TrainApproxContext(context.Background(), spec, base)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fig8 d=%d blinkml: %w", d, err)
		}
		dg := res.Diag
		blinkSecs := dg.Total().Seconds()
		overhead.AddRow(
			fmt.Sprintf("%d", d),
			secs(dg.InitialTrain.Seconds()),
			secs(dg.Statistics.Seconds()),
			secs(dg.SampleSearch.Seconds()),
			secs(dg.FinalTrain.Seconds()),
			secs(blinkSecs),
			secs(full.Time.Seconds()),
			pct(blinkSecs/full.Time.Seconds()),
		)

		fullGE := models.GeneralizationError(spec, full.Theta, env.Test())
		blinkGE := models.GeneralizationError(spec, res.Theta, env.Test())
		bound := models.GeneralizationBound(blinkGE, base.Epsilon)
		holds := "yes"
		if fullGE > bound {
			holds = "NO"
		}
		genErr.AddRow(fmt.Sprintf("%d", d), pct(fullGE), pct(blinkGE), pct(bound), holds)

		blinkIters := dg.FinalIters
		if res.UsedInitialModel {
			blinkIters = dg.InitialIters
		}
		iters.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", full.Iters), fmt.Sprintf("%d", blinkIters))
	}
	return overhead, genErr, iters, nil
}
