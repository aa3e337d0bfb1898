package experiments

import (
	"context"
	"fmt"
	"sort"

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
	for _, acc := range w.Accuracies {
		eps := 1 - acc
		var times []float64
		var sizes []int
		usedInitial := 0
		for r := 0; r < reps; r++ {
			o := base
			o.Epsilon = eps
			o.Seed = seed + int64(1000*(r+1))
			res, err := env.TrainApproxContext(context.Background(), spec, o)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s acc=%v rep=%d: %w", w.ID, acc, r, err)
			}
			times = append(times, res.Diag.Total().Seconds())
			sizes = append(sizes, res.SampleSize)
			if res.UsedInitialModel {
				usedInitial++
			}
		}
		mt := stat.Mean(times)
		sort.Ints(sizes)
		speedup := fullSecs / mt
		t.AddRow(
			pct(acc),
			secs(mt),
			ratioStr(speedup),
			pct(1-mt/fullSecs),
			fmt.Sprintf("%d", sizes[len(sizes)/2]),
			fmt.Sprintf("%d/%d", usedInitial, reps),
		)
	}
	return t, nil
}
