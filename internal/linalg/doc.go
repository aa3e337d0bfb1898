// Package linalg provides the dense linear-algebra kernels BlinkML needs:
// vector primitives, row-major dense matrices, an LU factorization, a
// symmetric eigensolver (Householder tridiagonalization followed by the
// implicit-shift QL iteration), and a thin SVD computed through the Gram
// matrix of the smaller side.
//
// Everything is float64 and written against the standard library only. The
// kernels favour clarity and predictable numerical behaviour over raw speed;
// they are the substitute for the numpy/SciPy layer the original BlinkML
// prototype was built on (paper §5.1; the README's "no external
// dependencies").
package linalg
