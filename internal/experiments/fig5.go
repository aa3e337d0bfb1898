package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/stat"
)

// RunFig5 regenerates one panel of Figure 5 / Table 4: BlinkML's training
// time, speedup, and time saving versus full training across requested
// accuracies, for one (model, dataset) combination.
func RunFig5(w Workload, scale Scale, reps int, seed int64) (*Table, error) {
	if reps <= 0 {
		reps = 3
	}
	spec := w.Spec(scale)
	ds := w.Data(scale, seed)
	base := core.Options{
		Epsilon:           0.5, // placeholder; set per accuracy below
		Delta:             0.05,
		Seed:              seed,
		InitialSampleSize: initialSampleSize(scale),
		K:                 paramSamples(scale),
	}
	env := core.NewEnv(ds, base)
	full, err := env.TrainFull(spec, base.Optimizer)
	if err != nil {
		return nil, fmt.Errorf("fig5 %s: %w", w.ID, err)
	}
	fullSecs := full.Time.Seconds()

	t := &Table{
		Title:   fmt.Sprintf("Figure 5 / Table 4 — %s on %s: training time savings (full training: %s)", w.ModelName, w.DataName, secs(fullSecs)),
		Columns: []string{"ReqAcc", "BlinkML", "Speedup", "Saving", "SampleSize", "Initial?"},
		Notes:   []string{fmt.Sprintf("N=%d pool rows, n0=%d, k=%d, δ=0.05, %d reps", env.PoolLen(), base.InitialSampleSize, base.K, reps)},
	}
	// One Plan per repetition, swept over the accuracies: m₀, the statistics
	// and the estimator's draws are the same for every ε at one seed, so they
	// are computed once and their time is added back to each contract's own —
	// the table still reads as the cost of one contract at that accuracy.
	times := make([][]float64, len(w.Accuracies))
	sizes := make([][]int, len(w.Accuracies))
	usedInitial := make([]int, len(w.Accuracies))
	for r := 0; r < reps; r++ {
		o := base
		o.Seed = seed + int64(1000*(r+1))
		start := time.Now()
		plan, err := core.NewPlan(context.Background(), env, spec, o)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s rep=%d: %w", w.ID, r, err)
		}
		build := time.Since(start)
		for i, acc := range w.Accuracies {
			o.Epsilon = 1 - acc
			start = time.Now()
			res, err := plan.Contract(context.Background(), spec, o)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s acc=%v rep=%d: %w", w.ID, acc, r, err)
			}
			times[i] = append(times[i], (build + time.Since(start)).Seconds())
			sizes[i] = append(sizes[i], res.SampleSize)
			if res.UsedInitialModel {
				usedInitial[i]++
			}
		}
	}
	for i, acc := range w.Accuracies {
		mt := stat.Mean(times[i])
		sort.Ints(sizes[i])
		speedup := fullSecs / mt
		t.AddRow(
			pct(acc),
			secs(mt),
			ratioStr(speedup),
			pct(1-mt/fullSecs),
			fmt.Sprintf("%d", sizes[i][len(sizes[i])/2]),
			fmt.Sprintf("%d/%d", usedInitial[i], reps),
		)
	}
	return t, nil
}
