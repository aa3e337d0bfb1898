package linalg

// The sparse kernel of the statistics hot path. It is written to be
// bit-identical to its dense counterpart on the same data: skipping a
// zero term only ever removes an exact `s += 0` from the accumulation, and
// every surviving term is computed with the same expression — and consumed
// in the same order — as the dense loop it replaces.

// SpOuterAdd accumulates m += a * x·xᵀ for a sparse x with sorted indices,
// touching only the nnz x nnz stored block. It replicates Dense.OuterAdd's
// rounding exactly: the scale s = a*x_i is formed once per row and each
// entry receives m[i][j] += s*x_j, with the same zero-skip guards
// (x_i == 0 and s == 0) the dense path applies via OuterAdd and Axpy.
func SpOuterAdd(m *Dense, a float64, idx []int32, val []float64) {
	for ki, i := range idx {
		xv := val[ki]
		if xv == 0 {
			continue
		}
		s := a * xv
		if s == 0 {
			continue
		}
		row := m.Row(int(i))
		for kj, j := range idx {
			row[j] += s * val[kj]
		}
	}
}
