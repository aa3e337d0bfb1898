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
// Where models.BlockDraws allows (v goes through a ScoreModel's scores),
// the draws are scored a block at a time: one pass over the holdout scores a
// whole models.Block of θ_N,i, with every score's bits as if scored alone.
// Elsewhere each draw goes through DiffFrom by itself.
func accuracyDiffs(spec models.Spec, theta []float64, fac Factor, alpha float64, holdout *dataset.Dataset, k int, rng *stat.RNG) []float64 {
	scale := sqrt(alpha)
	d := len(theta)
	vs := make([]float64, k)
	zs := drawNormals(rng, k, fac.Rank())
	// draw overwrites dst with θ_N,i = θ + √α·L·zᵢ.
	draw := func(i int, dst []float64) {
		fac.Apply(zs[i], dst)
		for j := 0; j < d; j++ {
			dst[j] = theta[j] + scale*dst[j]
		}
	}
	if per := models.BlockDraws(spec, d, holdout); per > 0 {
		pa := make([]float64, holdout.Len()) // m_n's side of v, once for all k draws
		models.PredictInto(spec, theta, holdout.X, pa)
		forBlocks(spec, d, holdout, per, k, func(b *models.Block, i0, i1 int) {
			b.Load(i0, i1, draw)
			b.Diffs(pa, vs[i0:i1])
		})
		return vs
	}
	diff := models.DiffFrom(spec, theta, holdout) // m_n's side of v, once for all k draws
	compute.For(k, 4, func(lo, hi int) {
		thetaN := make([]float64, d)
		preds := make([]float64, holdout.Len()) // diff's scratch, shared by this chunk's draws
		for i := lo; i < hi; i++ {
			draw(i, thetaN)
			vs[i] = diff(thetaN, preds)
		}
	})
	return vs
}

// forBlocks hands fn the n vectors of a score path, per at a time, on the
// compute pool: fn loads vectors i0 … i1−1 into b, one models.Block per
// pool chunk, and scores them.
func forBlocks(spec models.Spec, d int, holdout *dataset.Dataset, per, n int, fn func(b *models.Block, i0, i1 int)) {
	compute.For((n+per-1)/per, 1, func(lo, hi int) {
		b := models.NewBlock(spec, d, holdout)
		for i0 := lo * per; i0 < min(n, hi*per); i0 += per {
			fn(b, i0, min(n, i0+per))
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
	for i := range zs {
		zs[i] = make([]float64, rank)
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
