package experiments

import (
	"context"
	"fmt"

	"blinkml/internal/baselines"
	"blinkml/internal/core"
	"blinkml/internal/models"
)

// fig7Accuracies is the requested-accuracy axis of Figure 7.
var fig7Accuracies = []float64{0.80, 0.85, 0.90, 0.95, 0.96, 0.97, 0.98, 0.99}

// RunFig7 regenerates Figure 7 / Tables 6–7 for one workload: the Sample
// Size Estimator against FixedRatio (1% sample), RelativeRatio
// ((1−ε)·10%), and IncEstimator (grow n until the accuracy estimate
// certifies ε). The effectiveness table reports the actual accuracy each
// strategy delivers; the efficiency table reports runtimes, including
// BlinkML's pure training time (total minus estimator overhead).
func RunFig7(w Workload, scale Scale, seed int64) (effectiveness, efficiency *Table, err error) {
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
		return nil, nil, fmt.Errorf("fig7 %s: %w", w.ID, err)
	}
	incStep := initialSampleSize(scale)

	effectiveness = &Table{
		Title:   fmt.Sprintf("Figure 7a / Table 6 — %s on %s: actual accuracy by sample-size strategy", w.ModelName, w.DataName),
		Columns: []string{"ReqAcc", "FixedRatio", "RelativeRatio", "IncEstimator", "BlinkML"},
	}
	efficiency = &Table{
		Title:   fmt.Sprintf("Figure 7b / Table 7 — %s on %s: runtime by sample-size strategy", w.ModelName, w.DataName),
		Columns: []string{"ReqAcc", "FixedRatio", "RelativeRatio", "IncEstimator", "BlinkML", "BlinkML-pure-train"},
		Notes:   []string{fmt.Sprintf("IncEstimator step=%d·k²; pure train = initial + final training time", incStep)},
	}

	actualAcc := func(theta []float64) string {
		return pct(1 - models.Diff(spec, theta, full.Theta, env.Holdout()))
	}
	for _, acc := range fig7Accuracies {
		eps := 1 - acc
		o := base
		o.Epsilon = eps

		fixed, err := baselines.FixedRatio(env, spec, 0.01, seed+1, o.Optimizer)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 fixed: %w", err)
		}
		rel, err := baselines.RelativeRatio(env, spec, eps, seed+2, o.Optimizer)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 relative: %w", err)
		}
		inc, err := baselines.IncEstimator(env, spec, o, incStep)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 inc: %w", err)
		}
		blink, err := env.TrainApproxContext(context.Background(), spec, o)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 blinkml: %w", err)
		}

		effectiveness.AddRow(pct(acc), actualAcc(fixed.Theta), actualAcc(rel.Theta), actualAcc(inc.Theta), actualAcc(blink.Theta))
		pure := blink.Diag.InitialTrain + blink.Diag.FinalTrain
		efficiency.AddRow(
			pct(acc),
			secs(fixed.Time.Seconds()),
			secs(rel.Time.Seconds()),
			secs(inc.Time.Seconds()),
			secs(blink.Diag.Total().Seconds()),
			secs(pure.Seconds()),
		)
	}
	return effectiveness, efficiency, nil
}
