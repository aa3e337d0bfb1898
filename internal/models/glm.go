package models

import (
	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// glm is a model whose per-example loss reaches x only through the linear
// predictor z = θᵀx: ℓᵢ = loss(z, yᵢ) and qᵢ = coef(z, yᵢ)·xᵢ. A family
// states that pair once, in link; its per-example Spec methods and the
// blocked objective evaluation are both written against it.
type glm interface {
	link(z, y float64) (loss, coef float64)
}

// linkBlock is how many rows glmLossGrad hands dataset.DotRows and the link
// at a time: enough to amortize the calls, small enough that the scratch is
// stack arrays.
const linkBlock = 64

// glmLossGrad returns Σ ℓᵢ(θ) over rows lo..hi of ds and adds Σ qᵢ(θ) into
// grad, row by row in order — what ExampleLossGrad does over the same range,
// bit for bit — with the linear predictors and then the link computed a
// block at a time: the logistic link on its kernel, linalg.LogisticLink,
// which returns link's bits. (A concrete call: handing the block buffers to
// a method of m would move them to the heap.) A dense row with a non-zero
// coefficient is scattered by linalg.Axpy, the same grad[j] += c·x[j]; a
// zero coefficient keeps AddTo, whose 0·x still turns an infinite x into
// NaN and a −0 into +0.
func glmLossGrad(m glm, theta []float64, ds *dataset.Dataset, lo, hi int, grad []float64) float64 {
	var zbuf, ybuf, lbuf, cbuf [linkBlock]float64
	var loss float64
	for ; lo < hi; lo += linkBlock {
		rows := ds.X[lo:min(lo+linkBlock, hi)]
		n := len(rows)
		z, y, l, c := zbuf[:n], ybuf[:n], lbuf[:n], cbuf[:n]
		dataset.DotRows(rows, theta, z)
		if ds.Task != dataset.Unsupervised {
			y = ds.Y[lo : lo+n]
		}
		if _, ok := m.(LogisticRegression); ok {
			linalg.LogisticLink(z, y, l, c)
		} else {
			for r := range z {
				l[r], c[r] = m.link(z[r], y[r])
			}
		}
		for r, x := range rows {
			loss += l[r]
			if d, ok := x.(dataset.DenseRow); ok && c[r] != 0 {
				linalg.Axpy(c[r], d, grad)
			} else {
				x.AddTo(grad, c[r])
			}
		}
	}
	return loss
}

// rowDot is x.Dot(theta) with a dense row's Dot called directly, so the
// per-row entry points (Predict, ExampleLossGrad) pay one dynamic dispatch,
// not two.
func rowDot(x dataset.Row, theta []float64) float64 {
	if r, ok := x.(dataset.DenseRow); ok {
		return r.Dot(theta)
	}
	return x.Dot(theta)
}

// glmHessian accumulates H = (1/n) Σ wᵢ xᵢxᵢᵀ + βI for per-example weights
// w produced by weight (the GLM closed-form Hessian shared by linear,
// logistic, and Poisson regression). The example range is chunked over
// the compute pool into per-chunk d x d partials merged in tree order:
// deterministic at a fixed parallelism degree, and the exact serial sums
// at degree 1 (where the output matrix itself is the single chunk's
// accumulator). Both triangles are accumulated on purpose — the rank-one
// updates round asymmetrically (fl(w·xₐ)·x_b vs fl(w·x_b)·xₐ), exactly
// as the serial algorithm does. Each row takes the path of its type: a
// *dataset.SparseRow scatters its nnz x nnz block via linalg.SpOuterAdd,
// which replicates OuterAdd's rounding and zero-skip guards exactly, and
// any other row is densified into a scratch that a chunk makes at its first
// such row — the two paths are bit-identical.
func glmHessian(ds *dataset.Dataset, theta []float64, beta float64, weight func(z, y float64) float64) *linalg.Dense {
	d := ds.Dim
	n := ds.Len()
	h := linalg.NewDense(d, d)
	// The per-chunk scratch is a d x d matrix, so cap the fan-out harder
	// than the usual example grain: each chunk must amortize its scratch.
	chunks := compute.Chunks(n, 256+d)
	parts := make([][]float64, chunks)
	compute.ForChunksN(n, chunks, func(chunk, lo, hi int) {
		acc := h
		if chunk > 0 {
			acc = linalg.NewDense(d, d)
		}
		var buf []float64
		for i := lo; i < hi; i++ {
			x := ds.X[i]
			z := x.Dot(theta)
			w := weight(z, label(ds, i))
			if w == 0 {
				continue
			}
			if sp, ok := x.(*dataset.SparseRow); ok {
				linalg.SpOuterAdd(acc, w, sp.Idx, sp.Val)
				continue
			}
			if buf == nil {
				buf = make([]float64, d)
			}
			linalg.Fill(buf, 0)
			x.AddTo(buf, 1)
			acc.OuterAdd(w, buf, buf)
		}
		parts[chunk] = acc.Data
	})
	compute.ReduceVecs(parts) // folds into parts[0] == h.Data
	h.ScaleInPlace(1 / float64(n))
	h.AddDiag(beta)
	return h
}
