package experiments

import (
	"fmt"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// estimatedSampleSize runs only the front half of the BlinkML pipeline —
// initial model, statistics, Sample Size Estimator — and returns the n the
// searcher picks, which is what Figure 11 plots.
func estimatedSampleSize(spec models.Spec, ds *dataset.Dataset, opt core.Options) (int, error) {
	opt = opt.WithDefaults()
	env := core.NewEnv(ds, opt)
	bigN := env.PoolLen()
	n0 := opt.InitialSampleSize
	if n0 > bigN {
		n0 = bigN
	}
	rng := stat.NewRNG(opt.Seed + 0xF11)
	sample, err := env.Sample(rng, n0)
	if err != nil {
		return 0, err
	}
	fit, err := models.Train(spec, sample, nil, optimize.Options{})
	if err != nil {
		return 0, err
	}
	st, err := core.ComputeStatistics(spec, sample, fit.Theta, opt)
	if err != nil {
		return 0, err
	}
	searcher := core.NewSearcher(spec, fit.Theta, st.Factor, n0, bigN, env.Holdout(), opt.Epsilon, opt.Delta, opt.K, rng)
	return searcher.Search().N, nil
}

// absLin wraps linear regression with the paper's Appendix-C unnormalized
// regression difference (an absolute RMS prediction tolerance). Implementing
// models.Differ is what routes the estimators through it: models.BlockDraws
// declines any Differ, whatever else the spec implements, so every draw's
// difference is models.Diff's, which calls Diff.
type absLin struct {
	models.Spec
	scale float64
}

// Diff implements models.Differ.
func (a absLin) Diff(thetaA, thetaB []float64, holdout *dataset.Dataset) float64 {
	return models.AbsoluteRMSDiff(a.Spec, thetaA, thetaB, holdout, a.scale)
}

// RunFig11a regenerates Figure 11a: estimated sample size versus the
// regularization coefficient. Stronger regularization flattens the
// gradient surface (larger H relative to J in the Theorem-1 covariance
// μ/(μ+β)²), so fewer rows are needed — the estimated n falls as β grows.
// As in the paper's Appendix C, the regression difference here is the
// unnormalized RMS prediction gap: the covariance shrinkage is exactly
// what an absolute tolerance feels.
func RunFig11a(scale Scale, seed int64) (*Table, error) {
	rows := at(scale, 12000, 60000, 200000)
	dim := at(scale, 30, 60, 114)
	ds := datagen.Power(datagen.Config{Rows: rows, Dim: dim, Seed: seed})
	betas := []float64{0, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	t := &Table{
		Title:   "Figure 11a — regularization coefficient vs estimated sample size (Lin, Power-like)",
		Columns: []string{"Reg", "EstSampleSize"},
		Notes: []string{
			fmt.Sprintf("absolute RMS prediction tolerance ε=0.01, δ=0.05, N=%d", rows),
			"uses the Appendix-C unnormalized regression difference",
		},
	}
	for _, beta := range betas {
		spec := absLin{Spec: models.LinearRegression{Reg: beta}, scale: 1}
		n, err := estimatedSampleSize(spec, ds, core.Options{
			Epsilon:           0.01,
			Seed:              seed,
			InitialSampleSize: initialSampleSize(scale),
			K:                 paramSamples(scale),
		})
		if err != nil {
			return nil, fmt.Errorf("fig11a beta=%v: %w", beta, err)
		}
		t.AddRow(fmt.Sprintf("%.0e", beta), fmt.Sprintf("%d", n))
	}
	return t, nil
}

// RunFig11b regenerates Figure 11b: estimated sample size versus the
// number of parameters. More parameters mean more directions in which the
// approximate model can disagree, so the estimated n should grow with d.
func RunFig11b(scale Scale, seed int64) (*Table, error) {
	rows := at(scale, 12000, 60000, 200000)
	t := &Table{
		Title:   "Figure 11b — number of parameters vs estimated sample size (LR, Criteo-like)",
		Columns: []string{"Params", "EstSampleSize"},
		Notes:   []string{"ε=0.05, δ=0.05"},
	}
	for _, d := range fig8Dims(scale) {
		ds := datagen.Criteo(datagen.Config{Rows: rows, Dim: d, Seed: seed})
		n, err := estimatedSampleSize(models.LogisticRegression{Reg: 0.001}, ds, core.Options{
			Epsilon:           0.05,
			Seed:              seed,
			InitialSampleSize: initialSampleSize(scale),
			K:                 paramSamples(scale),
		})
		if err != nil {
			return nil, fmt.Errorf("fig11b d=%d: %w", d, err)
		}
		t.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", n))
	}
	return t, nil
}
