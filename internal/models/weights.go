package models

import (
	"sync"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// Weights is a max-entropy model's θ prepared for its class lanes: the K
// classes interleaved once by linalg.InterleaveClasses, so that a dense row
// as wide as θ's classes gets all K scores from one linalg.ClassScores call.
// Every other row is scored by logitsInto or answered by the spec.
// ClassScores adds each class's terms in logitsInto's order, so every
// prediction and every loss keeps the bits of the per-row path. A Weights
// reads θ and never writes it; it is safe for concurrent use, and it holds
// the θ it was built from, which must not be written while it is in use.
type Weights struct {
	spec  MaxEntropy
	theta []float64
	ns, d int       // classes, features per class
	t     []float64 // θ's classes interleaved
}

// NewWeights returns the weights of theta, a model of spec on d-dimensional
// rows, or nil where a prediction does not go through the class lanes:
// spec is not a MaxEntropy, or theta does not hold between 2 and laneBlock
// classes of d weights.
func NewWeights(spec Spec, theta []float64, d int) *Weights {
	me, ok := lanesFit(spec, theta, d)
	if !ok {
		return nil
	}
	return new(Weights).prepare(me, theta, d)
}

// lanesFit reports whether theta is a max-entropy spec's 2 to laneBlock
// classes of d weights.
func lanesFit(spec Spec, theta []float64, d int) (MaxEntropy, bool) {
	me, ok := spec.(MaxEntropy)
	if !ok || d <= 0 || len(theta)%d != 0 {
		return me, false
	}
	ns := len(theta) / d
	return me, ns >= 2 && ns <= laneBlock
}

// prepare makes w the weights of theta, reusing w's interleave storage:
// the one place a model's classes are interleaved.
func (w *Weights) prepare(spec MaxEntropy, theta []float64, d int) *Weights {
	w.spec, w.theta, w.ns, w.d = spec, theta, len(theta)/d, d
	w.t = linalg.InterleaveClasses(w.t, theta, w.ns, d)
	return w
}

var weightsPool = sync.Pool{New: func() any { return new(Weights) }}

// pooledWeights is NewWeights into pooled storage, for a caller that scores
// with theta's weights once: nil where NewWeights is nil, and otherwise
// weights the caller hands back with release.
func pooledWeights(spec Spec, theta []float64, d int) *Weights {
	me, ok := lanesFit(spec, theta, d)
	if !ok {
		return nil
	}
	return weightsPool.Get().(*Weights).prepare(me, theta, d)
}

// release returns pooled weights; w is invalid afterwards.
func (w *Weights) release() {
	w.theta = nil
	weightsPool.Put(w)
}

// Of reports whether w was built from theta itself: the same backing array
// and length, not merely equal values.
func (w *Weights) Of(theta []float64) bool {
	return len(theta) == len(w.theta) && &theta[0] == &w.theta[0]
}

// Predict returns spec.Predict(θ, x) for the spec and θ w was built from,
// bit for bit, allocating nothing for a row as wide as θ's classes.
func (w *Weights) Predict(x dataset.Row) float64 {
	// The scores live on the stack; a small array keeps the common class
	// counts from zeroing laneBlock of them per row.
	if w.ns <= maxFusedClasses {
		var z [maxFusedClasses]float64
		return w.predict(x, z[:w.ns])
	}
	var z [laneBlock]float64
	return w.predict(x, z[:w.ns])
}

func (w *Weights) predict(x dataset.Row, z []float64) float64 {
	if !w.scores(x, z) {
		return w.spec.Predict(w.theta, x)
	}
	return float64(argmax(z))
}

// PredictInto fills out[i] = w.Predict(rows[i]).
func (w *Weights) PredictInto(rows []dataset.Row, out []float64) {
	out = out[:len(rows)]
	for i, x := range rows {
		out[i] = w.Predict(x)
	}
}

// scores fills z, ns long, with x's class scores, each with the bits
// logitsInto gives it, and reports true; a row whose dimension is not θ's
// features is left to the spec, and scores reports false.
func (w *Weights) scores(x dataset.Row, z []float64) bool {
	if r, ok := x.(dataset.DenseRow); ok && len(r) == w.d {
		linalg.ClassScores(z, r, w.t)
		return true
	}
	if x.Dim() != w.d {
		return false
	}
	logitsInto(w.theta, x, w.ns, w.d, z)
	return true
}

// lossGrad returns Σ ℓᵢ(θ) over rows lo..hi of ds and adds Σ qᵢ(θ) into
// grad, row by row in order: what MaxEntropy.ExampleLossGrad does over the
// same range, bit for bit, with the logits from scores and one logit
// scratch for the whole range.
func (w *Weights) lossGrad(ds *dataset.Dataset, lo, hi int, grad []float64) float64 {
	var zbuf [laneBlock]float64
	z := zbuf[:w.ns]
	var loss float64
	for i := lo; i < hi; i++ {
		x, y := ds.X[i], label(ds, i)
		if w.scores(x, z) {
			loss += softmaxLossGrad(z, int(y), x, w.ns, w.d, grad)
		} else {
			loss += w.spec.ExampleLossGrad(w.theta, x, y, grad)
		}
	}
	return loss
}
