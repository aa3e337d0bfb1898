// Package datagen generates the synthetic stand-ins for the paper's six
// evaluation datasets (Table 2). The originals (Gas, Power, Criteo, HIGGS,
// MNIST, Yelp) are multi-gigabyte downloads; the generators reproduce each
// dataset's *shape* — dimensionality class, sparsity pattern, label
// mechanism, class counts — at laptop scale with deterministic seeds
// (the README's "paper-shaped synthetic workloads"; the paper's §5.1
// describes the originals). BlinkML's guarantees are data-independent,
// so shape, not provenance, is what the experiments exercise.
package datagen

import (
	"fmt"
	"math"

	"blinkml/internal/dataset"
	"blinkml/internal/stat"
)

// Config controls a generator. Zero fields fall back to per-dataset
// defaults documented on each generator.
type Config struct {
	Rows int
	Dim  int
	Seed int64
	// NNZ sets the active features per row for sparse generators that
	// honor it (currently "onehot"); 0 means the generator's default.
	NNZ int
}

func (c Config) withDefaults(rows, dim int) Config {
	if c.Rows <= 0 {
		c.Rows = rows
	}
	if c.Dim <= 0 {
		c.Dim = dim
	}
	return c
}

// Gas mimics the chemical-sensor regression dataset (paper: 4.2M rows,
// d=57, target = sensor reading from gas concentrations): features follow
// a slowly drifting AR(1) process per column, the target is a fixed linear
// response plus mild sensor noise. Defaults: 50,000 rows, 57 features.
func Gas(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("gas"))
	rng := stat.NewRNG(mix(cfg.Seed, 0x6A5))
	theta := groundTruth(rng, cfg.Dim, 1.0)
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.Regression, Name: "gas"}
	state := make([]float64, cfg.Dim)
	rng.NormVec(state)
	for i := 0; i < cfg.Rows; i++ {
		row := make(dataset.DenseRow, cfg.Dim)
		for j := range row {
			// AR(1) drift: concentrations change slowly across readings.
			state[j] = 0.95*state[j] + 0.31*rng.Norm()
			row[j] = state[j]
		}
		// Unit-variance sensor noise keeps the unit-Gaussian linear MLE
		// well-specified, so the information-matrix equality the paper's
		// statistics methods rely on (§3.4) holds exactly.
		y := row.Dot(theta) + rng.Norm()
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// Power mimics the household power-consumption regression dataset (paper:
// 2.1M rows, d=114): a mix of daily-periodic components and appliance
// spikes. Defaults: 50,000 rows, 114 features.
func Power(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("power"))
	rng := stat.NewRNG(mix(cfg.Seed, 0x90E))
	theta := groundTruth(rng, cfg.Dim, 0.8)
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.Regression, Name: "power"}
	for i := 0; i < cfg.Rows; i++ {
		row := make(dataset.DenseRow, cfg.Dim)
		phase := 2 * math.Pi * float64(i%1440) / 1440 // minute-of-day period
		for j := range row {
			periodic := math.Sin(phase + float64(j))
			spike := 0.0
			if rng.Float64() < 0.05 {
				spike = 2 + rng.Exp() // appliance turning on
			}
			row[j] = periodic + 0.7*rng.Norm() + spike
		}
		y := row.Dot(theta) + rng.Norm() // unit noise: see Gas
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// Higgs mimics the HIGGS binary-classification dataset (paper: 11M rows,
// d=28): two overlapping Gaussian classes over dense physics features, so
// the Bayes error is materially above zero, as for the real data. Defaults:
// 60,000 rows, 28 features.
func Higgs(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("higgs"))
	rng := stat.NewRNG(mix(cfg.Seed, 0x8165))
	sep := make([]float64, cfg.Dim)
	for j := range sep {
		sep[j] = 0.35 * rng.Norm()
	}
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.BinaryClassification, Name: "higgs"}
	for i := 0; i < cfg.Rows; i++ {
		y := 0.0
		if rng.Float64() < 0.53 { // signal fraction ~53% as in HIGGS
			y = 1
		}
		row := make(dataset.DenseRow, cfg.Dim)
		sign := -1.0
		if y == 1 {
			sign = 1
		}
		for j := range row {
			row[j] = sign*sep[j] + rng.Norm()
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// Criteo mimics the Criteo click-through dataset (paper: 45.8M rows,
// d=998,922 one-hot features): every row activates one bias feature plus
// ~38 one-hot features drawn from a Zipf law over the vocabulary, the label
// is Bernoulli from a sparse ground-truth logistic model calibrated to a
// ~25% positive rate. Defaults: 60,000 rows, 5,000 features (Dim is
// CLI-scalable up to the paper's 10⁶ since rows stay sparse).
func Criteo(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("criteo"))
	rng := stat.NewRNG(mix(cfg.Seed, 0xC417))
	zipf := stat.NewZipf(rng, cfg.Dim-1, 1.1)
	theta := groundTruth(rng, cfg.Dim, 0.9)
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.BinaryClassification, Name: "criteo"}
	active := make(map[int32]bool, 48)
	// Cap per-row activity well below the vocabulary so distinct draws from
	// the (skewed) Zipf law terminate quickly even at small dims.
	maxNNZ := (cfg.Dim - 1) / 3
	for i := 0; i < cfg.Rows; i++ {
		nnz := 8 + rng.Intn(61) // 8..68 active features, mean ~38
		if nnz > maxNNZ {
			nnz = maxNNZ
		}
		if nnz < 1 {
			nnz = 1
		}
		clear(active)
		active[0] = true // bias feature
		for len(active) < nnz+1 {
			active[int32(1+zipf.Draw())] = true
		}
		idx := make([]int32, 0, len(active))
		for k := range active {
			idx = append(idx, k)
		}
		sortInt32(idx)
		val := make([]float64, len(idx))
		var score float64
		for t, j := range idx {
			val[t] = 1
			score += theta[j]
		}
		row := &dataset.SparseRow{N: cfg.Dim, Idx: idx, Val: val}
		// Intercept −1.9 calibrates the positive rate to ≈ 25%.
		y := 0.0
		if rng.Float64() < sigmoid(score/3-1.1) {
			y = 1
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return dataset.Compact(ds)
}

// MNIST mimics the infinite-MNIST multiclass dataset (paper: 8M rows,
// d=784, 10 classes): each class has a fixed prototype image; rows are the
// prototype plus pixel noise, clipped to [0, 1]. Defaults: 30,000 rows, 784
// features (tests use Dim=64 for speed).
func MNIST(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("mnist"))
	const k = 10
	rng := stat.NewRNG(mix(cfg.Seed, 0x3157))
	protos := make([][]float64, k)
	for c := range protos {
		protos[c] = make([]float64, cfg.Dim)
		for j := range protos[c] {
			// Sparse bright strokes on a dark background.
			if rng.Float64() < 0.25 {
				protos[c][j] = 0.5 + 0.5*rng.Float64()
			}
		}
	}
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.MultiClassification, NumClasses: k, Name: "mnist"}
	for i := 0; i < cfg.Rows; i++ {
		c := rng.Intn(k)
		row := make(dataset.DenseRow, cfg.Dim)
		for j := range row {
			v := protos[c][j] + 0.25*rng.Norm()
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			row[j] = v
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, float64(c))
	}
	return ds
}

// Yelp mimics the Yelp-review rating dataset (paper: 5.3M rows, d=100,000
// bag-of-words, ratings as classes): documents draw words from a global
// Zipf vocabulary mixed with one of five rating-specific topics. Defaults:
// 30,000 rows, 10,000 vocabulary terms, 5 classes.
func Yelp(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("yelp"))
	const k = 5
	rng := stat.NewRNG(mix(cfg.Seed, 0x9E12))
	global := stat.NewZipf(rng, cfg.Dim, 1.05)
	// Each rating class prefers a distinct slice of the vocabulary.
	topicSize := cfg.Dim / (2 * k)
	if topicSize < 1 {
		topicSize = 1
	}
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.MultiClassification, NumClasses: k, Name: "yelp"}
	counts := make(map[int32]float64, 64)
	for i := 0; i < cfg.Rows; i++ {
		c := rng.Intn(k)
		length := 20 + rng.Intn(60)
		clear(counts)
		for w := 0; w < length; w++ {
			var term int
			if rng.Float64() < 0.35 {
				term = c*topicSize + rng.Intn(topicSize) // topic word
			} else {
				term = global.Draw()
			}
			counts[int32(term)]++
		}
		idx := make([]int32, 0, len(counts))
		for t := range counts {
			idx = append(idx, t)
		}
		sortInt32(idx)
		val := make([]float64, len(idx))
		for t, j := range idx {
			val[t] = math.Log1p(counts[j]) // sublinear tf weighting
		}
		ds.X = append(ds.X, &dataset.SparseRow{N: cfg.Dim, Idx: idx, Val: val})
		ds.Y = append(ds.Y, float64(c))
	}
	return dataset.Compact(ds)
}

// Counts is a Poisson-regression workload (the paper lists Poisson
// regression as a supported GLM): event counts with a log-linear rate.
// Defaults: 30,000 rows, 20 features.
func Counts(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("counts"))
	rng := stat.NewRNG(mix(cfg.Seed, 0x70C7))
	theta := groundTruth(rng, cfg.Dim, 0.25)
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.Regression, Name: "counts"}
	for i := 0; i < cfg.Rows; i++ {
		row := make(dataset.DenseRow, cfg.Dim)
		for j := range row {
			row[j] = rng.Norm()
		}
		lambda := math.Exp(row.Dot(theta))
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, poissonDraw(rng, lambda))
	}
	return ds
}

// OneHot is the criteo-like seeded sparse one-hot generator: each row has
// exactly NNZ active features (default 10) — a bias feature plus NNZ−1
// indices drawn uniformly without replacement from the vocabulary — with
// value 1 and a binary label from a fixed sparse logistic ground truth.
// Unlike Criteo's Zipf-skewed draw it is uniform, so rows stay cheap to
// generate at dim 10⁴–10⁶, which is what the high-dimensional sparse
// benchmarks need. Defaults: 50,000 rows, 10,000 features.
func OneHot(cfg Config) *dataset.Dataset {
	cfg = cfg.withDefaults(defaultShape("onehot"))
	k := cfg.NNZ
	if k <= 0 {
		k = 10
	}
	if k > cfg.Dim {
		k = cfg.Dim
	}
	rng := stat.NewRNG(mix(cfg.Seed, 0x1407))
	theta := groundTruth(rng, cfg.Dim, 1.2)
	ds := &dataset.Dataset{Dim: cfg.Dim, Task: dataset.BinaryClassification, Name: "onehot"}
	active := make(map[int32]bool, k)
	scale := 1 / math.Sqrt(float64(k))
	for i := 0; i < cfg.Rows; i++ {
		clear(active)
		active[0] = true // bias feature
		for len(active) < k {
			active[int32(1+rng.Intn(cfg.Dim-1))] = true
		}
		idx := make([]int32, 0, len(active))
		for j := range active {
			idx = append(idx, j)
		}
		sortInt32(idx)
		val := make([]float64, len(idx))
		var score float64
		for t, j := range idx {
			val[t] = 1
			score += theta[j]
		}
		y := 0.0
		if rng.Float64() < sigmoid(scale*score-0.4) {
			y = 1
		}
		ds.X = append(ds.X, &dataset.SparseRow{N: cfg.Dim, Idx: idx, Val: val})
		ds.Y = append(ds.Y, y)
	}
	return dataset.Compact(ds)
}

// generators is the single registry of synthetic workloads: each entry
// carries the generator's default rows × dim (laptop-scaled stand-ins for
// the paper's Table 2 sizes) and its builder, so Ref.Shape and Generate can
// never drift apart on which names exist.
var generators = map[string]struct {
	rows, dim int
	build     func(Config) *dataset.Dataset
}{}

// The registry is filled in init (not a composite literal) because the
// builders themselves read their defaults back out of it.
func init() {
	reg := func(name string, rows, dim int, build func(Config) *dataset.Dataset) {
		generators[name] = struct {
			rows, dim int
			build     func(Config) *dataset.Dataset
		}{rows, dim, build}
	}
	reg("gas", 50000, 57, Gas)
	reg("power", 50000, 114, Power)
	reg("criteo", 60000, 5000, Criteo)
	reg("higgs", 60000, 28, Higgs)
	reg("mnist", 30000, 784, MNIST)
	reg("yelp", 30000, 10000, Yelp)
	reg("counts", 30000, 20, Counts)
	reg("onehot", 50000, 10000, OneHot)
}

func defaultShape(name string) (rows, dim int) {
	g := generators[name]
	return g.rows, g.dim
}

// Generate dispatches by dataset name ("gas", "power", "criteo", "higgs",
// "mnist", "yelp", "counts").
func Generate(name string, cfg Config) (*dataset.Dataset, error) {
	g, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
	return g.build(cfg), nil
}

// Ref selects a generated workload by name on the wire — in a serving-layer
// request or a cluster task; zero Rows/Dim use the per-dataset defaults.
// Generation is deterministic in the four fields, so cluster workers
// regenerate the data locally instead of transferring it.
type Ref struct {
	Name string `json:"name"`
	Rows int    `json:"rows,omitempty"`
	Dim  int    `json:"dim,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

func (r *Ref) config() Config { return Config{Rows: r.Rows, Dim: r.Dim, Seed: r.Seed} }

// Build generates the workload r names.
func (r *Ref) Build() (*dataset.Dataset, error) { return Generate(r.Name, r.config()) }

// Shape returns the rows × dim Build would produce — the per-dataset
// defaults applied to r — without generating anything. Schedulers use it to
// size work for a synthetic workload before (or instead of) materializing
// it.
func (r *Ref) Shape() (rows, dim int, err error) {
	if _, ok := generators[r.Name]; !ok {
		return 0, 0, fmt.Errorf("datagen: unknown dataset %q", r.Name)
	}
	cfg := r.config().withDefaults(defaultShape(r.Name))
	return cfg.Rows, cfg.Dim, nil
}

// groundTruth draws a fixed parameter vector with the given scale.
func groundTruth(rng *stat.RNG, d int, scale float64) []float64 {
	theta := make([]float64, d)
	for i := range theta {
		theta[i] = scale * rng.Norm()
	}
	return theta
}

// mix folds a user seed with a per-dataset constant so different datasets
// built from the same seed do not share randomness.
func mix(seed, salt int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(salt)
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// poissonDraw samples Poisson(lambda) by inversion for small rates and a
// normal approximation above 30.
func poissonDraw(rng *stat.RNG, lambda float64) float64 {
	if lambda > 30 {
		v := math.Round(lambda + math.Sqrt(lambda)*rng.Norm())
		if v < 0 {
			v = 0
		}
		return v
	}
	p := math.Exp(-lambda)
	cum, u, y := p, rng.Float64(), 0.0
	for u > cum && y < 1000 {
		y++
		p *= lambda / y
		cum += p
	}
	return y
}

// sortInt32 sorts in place (insertion sort is fine at these row widths).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
