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
// done is to split one element's sum across accumulators.
package linalg
