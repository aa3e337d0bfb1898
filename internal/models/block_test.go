package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// sameBits reports whether a and b are the same float, any two NaNs alike
// (the lane kernels' NaN payloads are not part of the contract).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// plainRow is a row type the Block knows nothing of: it must be scored by
// its Dot.
type plainRow struct{ dataset.DenseRow }

// A Block's scores and differences are those of its vectors taken one at a
// time — each score the row's Dot with that vector's class, each v what Diff
// gives — bit for bit, for single- and multi-score models, over awkward
// values, a partial block and a panel of rows that does not divide the
// holdout, on dense, CSR and mixed holdouts, with the lane kernels on and
// off.
func TestBlockDrawsMatchScores(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	awkward := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e300}
	value := func() float64 {
		if r.Intn(10) == 0 {
			return awkward[r.Intn(len(awkward))]
		}
		return r.NormFloat64()
	}
	const h, d = 301, 7
	dense := func() dataset.Row {
		x := make(dataset.DenseRow, d)
		for j := range x {
			x[j] = value()
		}
		return x
	}
	// csr lays out h sparse rows of zero to d entries in one CSR block.
	csr := func() []dataset.Row {
		c := &dataset.CSR{Dim: d, Indptr: make([]int64, h+1)}
		for i := range h {
			for j := range d {
				if r.Intn(3) == 0 {
					c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, value())
				}
			}
			c.Indptr[i+1] = int64(len(c.Idx))
		}
		return c.Rows()
	}
	holdouts := map[string]func() []dataset.Row{
		"dense": func() []dataset.Row {
			rows := make([]dataset.Row, h)
			for i := range rows {
				rows[i] = dense()
			}
			return rows
		},
		"csr": csr,
		"mixed": func() []dataset.Row {
			rows := csr()
			for i := range rows {
				switch i % 3 {
				case 0:
					rows[i] = dense()
				case 1:
					rows[i] = plainRow{dense().(dataset.DenseRow)}
				}
			}
			return rows
		},
	}
	for _, c := range []struct {
		spec Spec
		task dataset.Task
		ns   int
	}{
		{LogisticRegression{}, dataset.BinaryClassification, 1},
		{LinearRegression{}, dataset.Regression, 1},
		{PoissonRegression{}, dataset.Regression, 1},
		{MaxEntropy{Classes: 3}, dataset.MultiClassification, 3},
		{MaxEntropy{Classes: 10}, dataset.MultiClassification, 10},
		{MaxEntropy{Classes: 70}, dataset.MultiClassification, 70},
	} {
		for _, lanes := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s-%d/lanes=%v", c.spec.Name(), c.ns, lanes), func(t *testing.T) {
				for _, shape := range []string{"dense", "csr", "mixed"} {
					t.Run(shape, func(t *testing.T) {
						defer linalg.SetLanes(lanes)()
						holdout := &dataset.Dataset{Dim: d, Task: c.task, NumClasses: c.ns, X: holdouts[shape](), Y: make([]float64, h)}
						p := c.ns * d
						per := BlockDraws(c.spec, p, holdout)
						if per < 1 {
							t.Fatalf("BlockDraws = %d", per)
						}
						thetaA := make([]float64, p)
						for j := range thetaA {
							thetaA[j] = value()
						}
						pa := make([]float64, h)
						PredictInto(c.spec, thetaA, holdout.X, pa)
						b := NewBlock(c.spec, p, holdout)
						for _, n := range []int{per, max(1, per-1)} {
							thetas, outs := make([][]float64, n), make([][]float64, n)
							for i := range thetas {
								thetas[i] = make([]float64, p)
								for j := range thetas[i] {
									thetas[i][j] = value()
								}
								outs[i] = make([]float64, h*c.ns)
							}
							b.Vectors(n)
							for i, theta := range thetas {
								b.Set(i, theta)
							}
							vs := make([]float64, n)
							b.Diffs(pa, vs)
							b.Scores(outs)
							for i, out := range outs {
								for row, x := range holdout.X {
									for cl := range c.ns {
										got, want := out[row*c.ns+cl], x.Dot(thetas[i][cl*d:(cl+1)*d])
										if !sameBits(got, want) {
											t.Fatalf("%d vectors: vector %d row %d score %d = %v, Dot %v", n, i, row, cl, got, want)
										}
									}
								}
								if w := Diff(c.spec, thetaA, thetas[i], holdout); !sameBits(vs[i], w) {
									t.Fatalf("%d vectors: vector %d v = %v, Diff %v", n, i, vs[i], w)
								}
							}
						}
					})
				}
			})
		}
	}
}

// BlockDraws declines a spec whose v does not go through scores and a
// holdout it cannot score; it takes any row type.
func TestBlockDrawsDeclines(t *testing.T) {
	dense := &dataset.Dataset{Dim: 2, Task: dataset.BinaryClassification, X: []dataset.Row{dataset.DenseRow{1, 2}}, Y: []float64{1}}
	sparse, err := dataset.NewSparseRow(2, []int32{1}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		spec     Spec
		rows     []dataset.Row
		paramDim int
		wantNone bool
	}{
		{"dense", LogisticRegression{}, dense.X, 2, false},
		{"sparse", LogisticRegression{}, []dataset.Row{dense.X[0], sparse}, 2, false},
		{"empty", LogisticRegression{}, nil, 2, true},
		{"misshapen", LogisticRegression{}, dense.X, 3, true},
		{"differ", differLogistic{}, dense.X, 2, true},
		{"ppca", &PPCA{Factors: 1}, dense.X, 2, true},
	} {
		ds := *dense
		ds.X, ds.Y = c.rows, make([]float64, len(c.rows))
		if got := BlockDraws(c.spec, c.paramDim, &ds); (got == 0) != c.wantNone {
			t.Errorf("%s: BlockDraws = %d", c.name, got)
		}
	}
}

// differLogistic is a ScoreModel with its own v.
type differLogistic struct{ LogisticRegression }

func (differLogistic) Diff(thetaA, thetaB []float64, holdout *dataset.Dataset) float64 { return 0 }

// SignFlips is the one-pass form of a sign-label probe: on every pair of
// scaled score vectors it must give what PredictScores on both and a
// PredictionDiff over the labels give — signed zeros, NaN, infinities,
// subnormals, scores exactly at 0 and a1 = 0 included.
func TestProbeSignFlipsMatchPredictionDiff(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	awkward := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1, -1}
	value := func() float64 {
		if r.Intn(3) == 0 {
			return awkward[r.Intn(len(awkward))]
		}
		return r.NormFloat64()
	}
	spec := LogisticRegression{}
	if !SignLabels(spec) || SignLabels(MaxEntropy{}) || SignLabels(LinearRegression{}) {
		t.Fatal("SignLabels must hold for logistic regression only")
	}
	for _, h := range []int{0, 1, 7, 300} {
		base, s1, s2 := make([]float64, h), make([]float64, h), make([]float64, h)
		for _, a := range [][2]float64{{0, 0}, {0, 1}, {1, 0}, {0.3, 0.02}, {5e-324, 1e300}, {math.Copysign(0, -1), 2}} {
			for rep := 0; rep < 20; rep++ {
				for j := range base {
					base[j], s1[j], s2[j] = value(), value(), value()
				}
				a1, a2 := a[0], a[1]
				scN, scNN := make([]float64, h), make([]float64, h)
				for j, b := range base {
					scN[j] = b + a1*s1[j]
					scNN[j] = scN[j] + a2*s2[j]
				}
				pN, pNN := make([]float64, h), make([]float64, h)
				spec.PredictScores(scN, pN)
				spec.PredictScores(scNN, pNN)
				v := NewPredictionDiff(spec.Task())
				v.AddRows(pN, pNN)
				if got, want := SignFlips(base, s1, s2, a1, a2), v.Value(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("h=%d a1=%v a2=%v: SignFlips %v, PredictScores+PredictionDiff %v", h, a1, a2, got, want)
				}
			}
		}
	}
}
