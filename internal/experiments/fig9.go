package experiments

import (
	"fmt"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// RunFig9a regenerates Figure 9a: the ratio of estimated to actual
// parameter variance for ClosedForm, InverseGradients, and ObservedFisher
// as the sample size grows ((Lin, Power) in the paper). The actual variance
// comes from Monte-Carlo retraining on independent samples; ratios near or
// above 1 mean the estimate is tight or conservative.
func RunFig9a(scale Scale, seed int64) (*Table, error) {
	dim := at(scale, 12, 20, 30)
	pool := datagen.Power(datagen.Config{Rows: at(scale, 20000, 80000, 200000), Dim: dim, Seed: seed})
	spec := models.LinearRegression{Reg: 0.001}
	trials := 25
	rng := stat.NewRNG(seed + 0xF16A)

	t := &Table{
		Title:   "Figure 9a — estimated/actual parameter variance vs sample size (Lin, Power-like)",
		Columns: []string{"SampleSize", "ClosedForm", "InverseGradients", "ObservedFisher"},
		Notes:   []string{fmt.Sprintf("actual variance from %d Monte-Carlo retrainings; ratio averaged over %d coordinates", trials, dim)},
	}
	// The sample-size axis of Figure 9a.
	sizes := at(scale, []int{100, 300, 1000, 3000}, []int{100, 500, 1000, 5000, 10000}, []int{100, 500, 1000, 5000, 10000, 50000})
	for _, n := range sizes {
		if n >= pool.Len() {
			continue
		}
		// Monte-Carlo actual variance per coordinate.
		thetas := make([][]float64, trials)
		for tr := 0; tr < trials; tr++ {
			idx := dataset.SampleWithoutReplacement(rng, pool.Len(), n)
			res, err := models.Train(spec, pool.Subset(idx), nil, optimize.Options{GradTol: 1e-9})
			if err != nil {
				return nil, fmt.Errorf("fig9a n=%d trial=%d: %w", n, tr, err)
			}
			thetas[tr] = res.Theta
		}
		actual := make([]float64, dim)
		col := make([]float64, trials)
		for j := 0; j < dim; j++ {
			for tr := range thetas {
				col[tr] = thetas[tr][j]
			}
			actual[j] = stat.Variance(col)
		}
		// Estimated variance per method, from statistics on one sample.
		idx := dataset.SampleWithoutReplacement(rng, pool.Len(), n)
		sample := pool.Subset(idx)
		fit, err := models.Train(spec, sample, nil, optimize.Options{GradTol: 1e-9})
		if err != nil {
			return nil, err
		}
		alpha := core.Alpha(n, pool.Len())
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range []core.Method{core.ClosedForm, core.InverseGradients, core.ObservedFisher} {
			st, err := core.ComputeStatistics(spec, sample, fit.Theta, core.Options{Epsilon: 0.1, Method: m})
			if err != nil {
				return nil, fmt.Errorf("fig9a n=%d %v: %w", n, m, err)
			}
			cov := core.Covariance(st.Factor)
			var ratioSum float64
			for j := 0; j < dim; j++ {
				ratioSum += alpha * cov.At(j, j) / actual[j]
			}
			row = append(row, fmt.Sprintf("%.2f", ratioSum/float64(dim)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RunFig9b regenerates Figure 9b: InverseGradients vs ObservedFisher
// runtime and covariance accuracy on a low-dimensional combo (LR, HIGGS)
// and a high-dimensional one (ME, MNIST). Accuracy is the paper's averaged
// Frobenius distance (1/p²)·‖C_true − C_est‖_F against the ClosedForm
// covariance as ground truth.
func RunFig9b(scale Scale, seed int64) (*Table, error) {
	type combo struct {
		name   string
		spec   models.Spec
		data   *dataset.Dataset
		sample int
	}
	combos := []combo{
		{
			name:   "LR, HIGGS",
			spec:   models.LogisticRegression{Reg: 0.001},
			data:   datagen.Higgs(datagen.Config{Rows: at(scale, 4000, 20000, 60000), Dim: at(scale, 15, 28, 28), Seed: seed}),
			sample: at(scale, 500, 2000, 5000),
		},
		{
			name:   "ME, MNIST",
			spec:   models.MaxEntropy{Classes: 10, Reg: 0.001},
			data:   datagen.MNIST(datagen.Config{Rows: at(scale, 3000, 10000, 20000), Dim: at(scale, 25, 64, 196), Seed: seed}),
			sample: at(scale, 300, 600, 1000),
		},
	}
	t := &Table{
		Title:   "Figure 9b — InverseGradients (IG) vs ObservedFisher (OF)",
		Columns: []string{"Model,Data", "Params", "IG time", "OF time", "IG ‖·‖F", "OF ‖·‖F"},
		Notes:   []string{"accuracy = (1/p²)·Frobenius distance to the ClosedForm covariance"},
	}
	for _, c := range combos {
		rng := stat.NewRNG(seed + 0xF16B)
		idx := dataset.SampleWithoutReplacement(rng, c.data.Len(), c.sample)
		sample := c.data.Subset(idx)
		fit, err := models.Train(c.spec, sample, nil, optimize.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig9b %s: %w", c.name, err)
		}
		ref, err := core.ComputeStatistics(c.spec, sample, fit.Theta, core.Options{Epsilon: 0.1, Method: core.ClosedForm})
		if err != nil {
			return nil, fmt.Errorf("fig9b %s closed form: %w", c.name, err)
		}
		refCov := core.Covariance(ref.Factor)
		p := float64(len(fit.Theta))

		var times [2]time.Duration
		var dists [2]float64
		for i, m := range []core.Method{core.InverseGradients, core.ObservedFisher} {
			start := time.Now()
			st, err := core.ComputeStatistics(c.spec, sample, fit.Theta, core.Options{Epsilon: 0.1, Method: m})
			if err != nil {
				return nil, fmt.Errorf("fig9b %s %v: %w", c.name, m, err)
			}
			times[i] = time.Since(start)
			dists[i] = linalg.FrobeniusDistance(core.Covariance(st.Factor), refCov) / (p * p)
		}
		t.AddRow(
			c.name,
			fmt.Sprintf("%d", len(fit.Theta)),
			secs(times[0].Seconds()),
			secs(times[1].Seconds()),
			fmt.Sprintf("%.2e", dists[0]),
			fmt.Sprintf("%.2e", dists[1]),
		)
	}
	return t, nil
}
