package core

import (
	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// Probe records one Sample Size Estimator evaluation at a candidate n.
type Probe struct {
	N int
	// Fraction of the k sampled model pairs with v ≤ ε.
	Fraction float64
	// Satisfied reports whether Fraction reaches the Lemma-2 conservative
	// level.
	Satisfied bool
}

// SampleSizeResult is the outcome of the minimum-sample-size search.
type SampleSizeResult struct {
	N      int
	Probes []Probe
}

// Searcher implements the Sample Size Estimator (§4). It holds the
// pre-drawn, pre-applied factor samples so that probing a candidate n costs
// only scalar scaling — the paper's "sampling by scaling" optimization:
// θ_n,i = θ₀ + √α₁·w₁ᵢ and θ_N,i = θ_n,i + √α₂·w₂ᵢ with α₁ = 1/n₀ − 1/n,
// α₂ = 1/n − 1/N (the two-stage sampling of §4.1 / Figure 4).
//
// Where v goes through a ScoreModel's scores (models.BlockDraws), the
// holdout scores of θ₀, w₁ᵢ and w₂ᵢ are precomputed once, making each probe
// O(k·holdout) regardless of the parameter dimension. They are scored a
// models.Block at a time, one pass over the holdout per block, each score
// with the bits it has alone. A probe of a sign-label classifier
// (models.SignLabels) is then one fused pass per pair (models.SignFlips);
// other score models go through scoreDiff.
//
// Nothing it precomputes depends on ε or δ — only the comparison at the end
// of a probe does — so a Plan keeps one Searcher for every contract it
// answers. A Searcher is not safe for concurrent use.
type Searcher struct {
	spec    models.Spec
	theta0  []float64
	holdout *dataset.Dataset
	n0, n   int // n = training-pool size N
	k       int
	// The contract Probe and Search compare against (a Plan passes each
	// contract's own instead).
	eps, delta float64

	// The k sampled pairs a probe rescales: the factor samples w₁ᵢ, w₂ᵢ
	// themselves (k x d), or on the score fast path their holdout scores
	// (k x h·s).
	w1, w2 [][]float64

	// Score fast path (nil when BlockDraws declines): per holdout row, the
	// scores of θ₀ next to those of each wᵢ.
	scoreModel models.ScoreModel
	signs      bool // the scores' sign is the label: probes count flips
	nScores    int
	base       []float64 // h*s: scores of θ₀
	// scratch[c] is pool chunk c's probe buffer, kept from probe to probe.
	scratch [][]float64

	// vs, when non-nil, memoizes the k pair differences per probed n: a Plan
	// sets it so a later search re-reads the probes it shares with an
	// earlier one.
	vs map[int][]float64
}

// NewSearcher draws the k factor-sample pairs and precomputes holdout
// scores where possible.
func NewSearcher(spec models.Spec, theta0 []float64, fac Factor, n0, bigN int, holdout *dataset.Dataset, eps, delta float64, k int, rng *stat.RNG) *Searcher {
	s := newSearcher(spec, theta0, fac, n0, bigN, holdout, drawNormals(rng, 2*k, fac.Rank()))
	s.eps, s.delta = eps, delta
	return s
}

// newSearcher applies the factor to the 2k pre-drawn normals zs (z₁ᵢ, z₂ᵢ
// alternating) and scores the results on the holdout.
func newSearcher(spec models.Spec, theta0 []float64, fac Factor, n0, bigN int, holdout *dataset.Dataset, zs [][]float64) *Searcher {
	k := len(zs) / 2
	s := &Searcher{
		spec:    spec,
		theta0:  theta0,
		holdout: holdout,
		n0:      n0,
		n:       bigN,
		k:       k,
	}
	d := len(theta0)
	var ws [][]float64 // w₁ᵢ, w₂ᵢ alternating, as zs
	if per := models.BlockDraws(spec, d, holdout); per > 0 {
		sm := spec.(models.ScoreModel)
		s.scoreModel, s.signs, s.nScores = sm, models.SignLabels(spec), sm.NumScores(d, holdout.Dim)
		// θ₀ and the 2k samples in one pass: vector 0 is θ₀, vector i+1 is
		// sample i.
		out := make([][]float64, 2*k+1)
		forDraws(spec, holdout, fac, zs, per, 1, func(b *models.Block, i0, i1 int, _ layout) {
			if i0 == 0 {
				b.Set(0, theta0)
			}
			for i := i0; i < i1; i++ {
				out[i] = make([]float64, holdout.Len()*s.nScores)
			}
			b.Scores(out[i0:i1])
		})
		s.base, ws = out[0], out[1:]
	} else {
		ws = make([][]float64, 2*k)
		all := make([]float64, 2*k*d)
		for i := range ws {
			ws[i] = all[i*d : (i+1)*d]
		}
		compute.For(2*k, 2, func(lo, hi int) {
			var g groupScratch
			applyPlain(fac, zs[lo:hi], all[lo*d:hi*d], &g)
		})
	}
	s.w1, s.w2 = make([][]float64, k), make([][]float64, k)
	for i := range k {
		s.w1[i], s.w2[i] = ws[2*i], ws[2*i+1]
	}
	return s
}

// Probe evaluates the Equation-8 criterion at candidate sample size n.
func (s *Searcher) Probe(n int) Probe { return s.probe(n, s.eps, s.delta) }

func (s *Searcher) probe(n int, eps, delta float64) Probe {
	if n >= s.n {
		return Probe{N: n, Fraction: 1, Satisfied: true}
	}
	if n < s.n0 {
		n = s.n0
	}
	vs := s.pairDiffs(n)
	return Probe{
		N:         n,
		Fraction:  stat.FractionAtMost(vs, eps),
		Satisfied: stat.MeetsLevel(vs, eps, delta),
	}
}

// pairDiffs returns v(m_n, m_N) for each of the k sampled pairs at sample
// size n (n₀ ≤ n < N).
func (s *Searcher) pairDiffs(n int) []float64 {
	if vs, ok := s.vs[n]; ok {
		return vs
	}
	a1 := sqrt(Alpha(s.n0, n))
	a2 := sqrt(Alpha(n, s.n))
	vs := make([]float64, s.k)
	// Each sampled pair's diff is independent; probes fan out over the
	// pool (vs entries are written by exactly one chunk, so the probe is
	// deterministic regardless of the degree).
	switch {
	case s.signs:
		compute.For(s.k, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vs[i] = models.SignFlips(s.base, s.w1[i], s.w2[i], a1, a2)
			}
		})
	case s.scoreModel != nil:
		chunks := compute.Chunks(s.k, 4)
		for len(s.scratch) < chunks {
			s.scratch = append(s.scratch, make([]float64, 2*s.probeRows()*(s.nScores+1)))
		}
		compute.ForChunksN(s.k, chunks, func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				vs[i] = s.scoreDiff(s.w1[i], s.w2[i], a1, a2, s.scratch[chunk])
			}
		})
	default:
		d := len(s.theta0)
		compute.For(s.k, 4, func(lo, hi int) {
			thetaN := make([]float64, d)
			thetaNN := make([]float64, d)
			for i := lo; i < hi; i++ {
				for j := 0; j < d; j++ {
					thetaN[j] = s.theta0[j] + a1*s.w1[i][j]
					thetaNN[j] = thetaN[j] + a2*s.w2[i][j]
				}
				vs[i] = models.Diff(s.spec, thetaN, thetaNN, s.holdout)
			}
		})
	}
	if s.vs != nil {
		s.vs[n] = vs
	}
	return vs
}

// probeBlock is how many scores per model scoreDiff hands PredictScores at a
// time: one dispatch per block, with scratch that stays in the nearest
// cache whatever the score-vector length.
const probeBlock = 256

// probeRows is the holdout rows in one such block.
func (s *Searcher) probeRows() int { return max(1, probeBlock/s.nScores) }

// scoreDiff computes v(m_n, m_N) for one sampled pair from precomputed
// scores: scores(θ_n,i) = base + a1·s1ᵢ, scores(θ_N,i) = that + a2·s2ᵢ. Per
// block of rows, buf — 2·probeRows·(nScores+1) long — holds both models'
// scores one after the other and then their predictions, so one
// PredictScores call answers for the pair. It serves every score model but
// the sign-label classifiers, whose pairs models.SignFlips counts in one
// pass with the same bits.
func (s *Searcher) scoreDiff(s1, s2 []float64, a1, a2 float64, buf []float64) float64 {
	ns, rows := s.nScores, s.probeRows()
	v := models.NewPredictionDiff(s.spec.Task())
	for lo, h := 0, s.holdout.Len(); lo < h; lo += rows {
		m := min(rows, h-lo)
		base, s1, s2 := s.base[lo*ns:][:m*ns], s1[lo*ns:][:m*ns], s2[lo*ns:][:m*ns]
		scN, scNN := buf[:m*ns], buf[m*ns:][:m*ns]
		for j, b := range base {
			scN[j] = b + a1*s1[j]
			scNN[j] = scN[j] + a2*s2[j]
		}
		pred := buf[2*m*ns:][:2*m]
		s.scoreModel.PredictScores(buf[:2*m*ns], pred)
		v.AddRows(pred[:m], pred[m:])
	}
	return v.Value()
}

// Search binary-searches the smallest n in [n₀, N] whose probe satisfies
// the Lemma-2 criterion, relying on the Theorem-2 monotonicity of the
// success probability in n. The search costs O(log₂(N − n₀)) probes.
func (s *Searcher) Search() SampleSizeResult { return s.search(s.eps, s.delta) }

func (s *Searcher) search(eps, delta float64) SampleSizeResult {
	var probes []Probe
	lo, hi := s.n0, s.n
	first := s.probe(lo, eps, delta)
	probes = append(probes, first)
	if first.Satisfied {
		return SampleSizeResult{N: lo, Probes: probes}
	}
	// Invariant: lo unsatisfied, hi satisfied (n = N always satisfies).
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		p := s.probe(mid, eps, delta)
		probes = append(probes, p)
		if p.Satisfied {
			hi = mid
		} else {
			lo = mid
		}
	}
	return SampleSizeResult{N: hi, Probes: probes}
}
