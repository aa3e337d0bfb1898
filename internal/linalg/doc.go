// Package linalg provides the dense linear-algebra kernels BlinkML needs:
// vector primitives, row-major dense matrices, an LU factorization, a
// symmetric eigensolver (Householder tridiagonalization followed by the
// implicit-shift QL iteration), and a thin SVD computed through the Gram
// matrix of the smaller side.
//
// Everything is float64 and written against the standard library only; the
// kernels are the substitute for the numpy/SciPy layer the original BlinkML
// prototype was built on (paper §5.1; the README's "no external
// dependencies").
//
// The rule every kernel here keeps, and that the row kernels outside this
// package (dataset.DotRows, the fused multiclass kernels in models) keep
// with it: any blocking, tiling, unrolling or interleaving of independent
// outputs is allowed that leaves each output element's adds in the order
// the naive loop performs them. A floating-point sum is defined by its
// order, so such a kernel returns the naive loop's bits — that is what lets
// a result be pinned, replayed and compared across code paths — while
// several outputs' chains of dependent adds proceed side by side instead of
// one at a time at add latency (dotRows, MatMul's tiles). What is never
// done is to split one element's sum across accumulators. The symmetric
// rank-k kernel SyrkUpperAdd is one of these: it takes four rows per pass
// over its output, and each element of the triangle still adds its terms
// in row order, skipping a zero coefficient exactly where the one-row
// OuterAdd does; SyrkT and the statistics phase's covariance side both run
// on it.
//
// Who owns a matrix: a function that works in place says so and consumes
// its argument. SymEigRows, the one eigensolver, overwrites the symmetric
// matrix it is given with its eigenvectors (row j for eigenvalue j), so a
// caller hands it only a matrix it built and will not read again.
// NewSymEig never consumes its input: it runs SymEigRows on a copy and
// returns the eigenvectors as columns.
package linalg
