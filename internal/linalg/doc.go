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
// The lane kernels (lanes.go, lanes_amd64.s) keep the same rule with
// vector registers: where the CPU has AVX2 (one CPUID/XGETBV check at init,
// the only selector), the raw loop under Axpy, the one-to-four-row update
// y += Σ cᵣ·rᵣ under SyrkUpperAdd, mulAddRow and tred2's accumulation, the
// Givens pair update, tred2's rank-two row update and the class scores
// (ClassScores, over class-interleaved weights: a model's classes, the
// columns of a block of sampled parameter vectors, or a group of the
// estimators' normal draws that the statistics factor multiplies) run four
// independent elements per instruction. Each lane performs the scalar loop's IEEE
// operations in its order — separate multiplies, adds and subtracts, never
// a fused multiply-add, with an SSE2 scalar tail — so every n, θ, ε̂ and
// prediction keeps its bits (NaN payloads aside, which neither path
// defines). Decisions stay in Go: a zero coefficient is skipped before any
// kernel runs, and the row update takes only the non-zero terms, compacted
// in row order. Each assembly function is declared //go:noescape (or stack
// scratch handed to it would move to the heap) and is reached only through
// a Go wrapper that first reslices every input to its output's length.
// Off amd64, or without AVX2, the scalar loops are the only path; they are
// also the tests' reference (TestLanesMatchScalar, FuzzLanes).
//
// The rule has one exception, the logistic link kernel under LogisticLink
// (link.go): the scalar link calls math.Exp, which on amd64 is assembly
// with a fused branch taken where the CPU has FMA. The kernel copies that
// branch instruction for instruction, so it fuses exactly where math.Exp
// does, and copies math.Log1p's operations, which the compiler does not
// fuse. Whether the standard library took that branch is not something
// CPUID can answer (GODEBUG=cpu.fma=off turns it off), so an init
// self-check decides: the kernel runs only where it returns the scalar
// link's bits on a fixed probe (TestLogisticLinkMatchesScalar,
// FuzzLogisticLink, TestLinkKernelFollowsStdlib).
//
// Who owns a matrix: a function that works in place says so and consumes
// its argument. SymEigRows, the one eigensolver, overwrites the symmetric
// matrix it is given with its eigenvectors (row j for eigenvalue j), so a
// caller hands it only a matrix it built and will not read again.
// NewSymEig never consumes its input: it runs SymEigRows on a copy and
// returns the eigenvectors as columns.
//
// linalg imports no obs: a kernel charges no ledger. The phase that calls
// one knows the shapes it ran and charges them; core's statistics phase
// keeps the operation counts (core/stats.go).
package linalg
