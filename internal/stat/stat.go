// Package stat provides the random-sampling and order-statistics utilities
// BlinkML's estimators are built on: a seeded RNG, standard-normal draws,
// empirical quantiles, and the Hoeffding-adjusted conservative quantile of
// Lemma 2 in the paper.
package stat

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic random source. It wraps math/rand with an explicit
// seed so that every experiment in the repository is reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded RNG.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Norm returns a standard-normal draw.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// NormVec fills dst with independent standard-normal draws.
func (g *RNG) NormVec(dst []float64) {
	for i := range dst {
		dst[i] = g.r.NormFloat64()
	}
}

// Exp returns an Exp(1) draw.
func (g *RNG) Exp() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Split derives an independent RNG from the current stream, so concurrent
// consumers do not contend on a shared source.
func (g *RNG) Split() *RNG { return NewRNG(g.r.Int63()) }

// Zipf returns a draw from a Zipf distribution over {0, ..., n-1} with
// exponent s > 1 approximated by inverse-CDF sampling on the harmonic
// weights. It is used by the Criteo- and Yelp-like generators to reproduce
// long-tailed feature popularity.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf precomputes the CDF for n items with exponent s (s=1 gives the
// classic 1/rank law).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next Zipf-distributed index.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Quantile returns the empirical q-quantile (0 <= q <= 1) of xs using the
// nearest-rank definition on a sorted copy. An empty input returns NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// Nearest rank: the ⌈q·k⌉-th smallest value.
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for fewer than two
// observations).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// ConservativeLevel returns the Lemma-2 adjusted empirical level
//
//	τ = min(1, (1-δ)/0.95 + sqrt(ln(1/0.95) / (2k)))
//
// at which the sampled model differences must be cut to guarantee
// Pr[v(m_n) ≤ ε] ≥ 1-δ. The Hoeffding term accounts for using k Monte-Carlo
// parameter samples instead of the exact integral; the 1/0.95 inflation
// buys the 0.95 probability that the Hoeffding event holds. For δ ≤ 0.05
// the level clamps to 1 (use the sample maximum), which is the paper's own
// operating point.
func ConservativeLevel(delta float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	tau := (1-delta)/0.95 + math.Sqrt(math.Log(1/0.95)/(2*float64(k)))
	if tau > 1 {
		return 1
	}
	if tau < 0 {
		return 0
	}
	return tau
}

// ConservativeQuantile returns the Lemma-2 conservative upper bound for the
// sampled model differences vs: the ⌈τk⌉-th smallest value with
// τ = ConservativeLevel(delta, len(vs)). Empty input returns NaN.
func ConservativeQuantile(vs []float64, delta float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return Quantile(vs, ConservativeLevel(delta, len(vs)))
}

// FractionAtMost returns the fraction of vs that are ≤ bound.
func FractionAtMost(vs []float64, bound float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, v := range vs {
		if v <= bound {
			count++
		}
	}
	return float64(count) / float64(len(vs))
}

// MeetsLevel reports whether the empirical fraction of vs at or below bound
// reaches the Lemma-2 conservative level for the given delta. The Sample
// Size Estimator uses this as its binary-search predicate (Equation 8 with
// the Lemma-2 adjustment).
func MeetsLevel(vs []float64, bound, delta float64) bool {
	return FractionAtMost(vs, bound) >= ConservativeLevel(delta, len(vs))
}
