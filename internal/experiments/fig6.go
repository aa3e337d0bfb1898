package experiments

import (
	"context"
	"fmt"

	"blinkml/internal/core"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// RunFig6 regenerates one panel of Figure 6 / Table 5: requested versus
// actual model accuracy. The actual accuracy of an approximate model is
// 1 − v(m_n, m_N) measured on the shared holdout against a truly trained
// full model; the paper's guarantee is that the 5th percentile across runs
// stays above the requested accuracy (δ = 0.05).
func RunFig6(w Workload, scale Scale, reps int, seed int64) (*Table, error) {
	if reps <= 0 {
		reps = 10
	}
	spec := w.Spec(scale)
	ds := w.Data(scale, seed)
	base := core.Options{
		Epsilon:           0.5,
		Delta:             0.05,
		Seed:              seed,
		InitialSampleSize: initialSampleSize(scale),
		K:                 paramSamples(scale),
	}
	env := core.NewEnv(ds, base)
	full, err := env.TrainFull(spec, base.Optimizer)
	if err != nil {
		return nil, fmt.Errorf("fig6 %s: %w", w.ID, err)
	}

	t := &Table{
		Title:   fmt.Sprintf("Figure 6 / Table 5 — %s on %s: requested vs actual accuracy", w.ModelName, w.DataName),
		Columns: []string{"ReqAcc", "ActualMean", "Actual5th", "Actual95th", "5th>=Req"},
		Notes:   []string{fmt.Sprintf("%d reps per accuracy; actual = 1 − v(m_n, m_N) on %d holdout rows", reps, env.Holdout().Len())},
	}
	// One Plan per repetition, swept over the accuracies: every (accuracy,
	// repetition) model is bit for bit the one-shot run's.
	actuals := make([][]float64, len(w.Accuracies))
	for r := 0; r < reps; r++ {
		o := base
		o.Seed = seed + int64(777*(r+1))
		plan, err := core.NewPlan(context.Background(), env, spec, o)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s rep=%d: %w", w.ID, r, err)
		}
		for i, acc := range w.Accuracies {
			o.Epsilon = 1 - acc
			res, err := plan.Contract(context.Background(), spec, o)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s acc=%v rep=%d: %w", w.ID, acc, r, err)
			}
			actuals[i] = append(actuals[i], 1-models.Diff(spec, res.Theta, full.Theta, env.Holdout()))
		}
	}
	for i, acc := range w.Accuracies {
		p5 := stat.Quantile(actuals[i], 0.05)
		ok := "yes"
		if p5 < acc {
			ok = "NO"
		}
		t.AddRow(pct(acc), pct(stat.Mean(actuals[i])), pct(p5), pct(stat.Quantile(actuals[i], 0.95)), ok)
	}
	return t, nil
}
