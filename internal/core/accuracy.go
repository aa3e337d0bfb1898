package core

import (
	"math"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// AccuracyEstimate is the output of the Model Accuracy Estimator (§3).
type AccuracyEstimate struct {
	// Epsilon is the Lemma-2 conservative bound: Pr[v(m_n) ≤ Epsilon] ≥ 1−δ.
	Epsilon float64
}

// EstimateAccuracy bounds the difference between the model at theta
// (trained on a sample of size n) and the unknown full model (size N):
// it draws k parameters θ_N,i ~ N(θ_n, α·H⁻¹JH⁻¹) with α = 1/n − 1/N
// (Corollary 1), evaluates v(m_n; θ_N,i) on the holdout, and returns the
// conservative quantile of Lemma 2.
func EstimateAccuracy(spec models.Spec, theta []float64, fac Factor, alpha float64, holdout *dataset.Dataset, k int, delta float64, rng *stat.RNG) AccuracyEstimate {
	if alpha <= 0 {
		// n ≥ N: the "approximate" model is the full model.
		return AccuracyEstimate{Epsilon: 0}
	}
	return AccuracyEstimate{Epsilon: stat.ConservativeQuantile(accuracyDiffs(spec, theta, fac, alpha, holdout, k, rng), delta)}
}

// accuracyDiffs returns the k sampled differences v(m_n; θ_N,i) behind the
// accuracy estimate. They do not depend on δ: the bound for any confidence
// is a quantile of this one vector (alpha must be positive).
//
// m_n's holdout predictions are made once for all k draws wherever v goes
// through predictions. Where models.BlockDraws allows (v goes through a
// ScoreModel's scores), the draws are scored a block at a time: the factor
// writes a whole models.Block of θ_N,i = θ + √α·L·zᵢ straight into its
// storage, and one pass over the holdout scores them, with every score's
// bits as if scored alone. Elsewhere each draw is a plain vector of a
// group: predicted and compared with m_n's predictions, or, for a spec
// whose v needs none (a Differ, PPCA), put through models.Diff.
func accuracyDiffs(spec models.Spec, theta []float64, fac Factor, alpha float64, holdout *dataset.Dataset, k int, rng *stat.RNG) []float64 {
	scale := sqrt(alpha)
	d := len(theta)
	vs := make([]float64, k)
	zs := drawNormals(rng, k, fac.Rank())
	var pa []float64 // m_n's side of v
	if _, own := spec.(models.Differ); !own && spec.Task() != dataset.Unsupervised {
		pa = make([]float64, holdout.Len())
		models.PredictInto(spec, theta, holdout.X, pa)
	}
	if per := models.BlockDraws(spec, d, holdout); per > 0 {
		forDraws(spec, holdout, fac, zs, per, 0, func(b *models.Block, i0, i1 int, l layout) {
			l.shift(i1-i0, theta, scale)
			b.Diffs(pa, vs[i0:i1])
		})
		return vs
	}
	compute.For(k, 4, func(lo, hi int) {
		var s groupScratch
		ws := make([]float64, min(hi-lo, groupDraws)*d)
		pb := make([]float64, len(pa)) // this chunk's draws' predictions
		for g0 := lo; g0 < hi; g0 += groupDraws {
			g1 := min(hi, g0+groupDraws)
			applyPlain(fac, zs[g0:g1], ws, &s)
			plain(ws, d).shift(g1-g0, theta, scale)
			for i := g0; i < g1; i++ {
				w := ws[(i-g0)*d:][:d]
				if pa == nil {
					vs[i] = models.Diff(spec, theta, w, holdout)
					continue
				}
				models.PredictInto(spec, w, holdout.X, pb)
				v := models.NewPredictionDiff(spec.Task())
				v.AddRows(pa, pb)
				vs[i] = v.Value()
			}
		}
	})
	return vs
}

// forDraws scores n = lead + len(zs) vectors on holdout, per at a time, on
// the compute pool, each pool chunk through one models.Block and one
// groupScratch. Vector i ≥ lead is L·zs[i−lead], which fac writes straight
// into the block; fn sets the first lead ≤ per vectors itself, and then
// scores the block's vectors i0 … i1−1, which l lays out. A chunk applies
// fac to groups of whole blocks, at least groupDraws draws a group.
func forDraws(spec models.Spec, holdout *dataset.Dataset, fac Factor, zs [][]float64, per, lead int, fn func(b *models.Block, i0, i1 int, l layout)) {
	d, n := fac.Dim(), lead+len(zs)
	group := (groupDraws + per - 1) / per // blocks a group
	compute.For((n+per-1)/per, 1, func(lo, hi int) {
		b := models.NewBlock(spec, d, holdout)
		var s groupScratch
		for b0 := lo; b0 < hi; b0 += group {
			v0, v1 := b0*per, min(n, min(hi, b0+group)*per)
			z0 := max(0, v0-lead)
			fac.product(zs[z0:max(z0, v1-lead)], &s)
			for i0 := v0; i0 < v1; i0 += per {
				i1 := min(v1, i0+per)
				l := blockLayout(b.Vectors(i1 - i0))
				if first := max(i0, lead); first < i1 {
					fac.scatter(&s, first-lead-z0, i1-lead-z0, l.from(first-i0))
				}
				fn(b, i0, i1, l)
			}
		}
	})
}

// drawNormals draws count standard-normal vectors of length rank from rng,
// one after another. Both estimators draw everything up front, in the exact
// order the serial algorithm consumed the RNG; applying the factor and
// evaluating the holdout are then independent per draw, so they fan out on
// the compute pool without perturbing the random stream.
func drawNormals(rng *stat.RNG, count, rank int) [][]float64 {
	zs := make([][]float64, count)
	all := make([]float64, count*rank)
	for i := range zs {
		zs[i] = all[i*rank : (i+1)*rank : (i+1)*rank]
		rng.NormVec(zs[i])
	}
	return zs
}

// sqrt clamps negative inputs (rounding noise in α) to zero.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
