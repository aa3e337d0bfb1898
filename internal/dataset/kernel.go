package dataset

// DotRows fills out[i] = rows[i].Dot(theta), bit for bit. It is the row-block
// kernel under every loop that scores many rows against one parameter
// vector (objective evaluation, holdout scoring, batch prediction).
//
// A dense dot is a chain of dependent adds, so one row at a time runs at
// floating-add latency, not throughput. Four dense rows of equal length are
// therefore walked together, one accumulator per row: four independent
// chains in flight, each still summing j = 0…d−1 in order — the rule of
// linalg's kernels (see that package's doc): block freely, never reorder
// the adds of one output element. Sparse, mixed or ragged groups, and the
// tail, take the per-row call.
//
// A sample's rows are scattered over the pool they were drawn from, so
// reaching one is two dependent cache misses (the row header, then its
// data) that four chains cannot hide. Each block of rows is therefore
// touched first — header and first element, nothing depending on anything —
// so the block's misses overlap with one another instead of queueing behind
// the arithmetic.
func DotRows(rows []Row, theta, out []float64) {
	out = out[:len(rows)]
	for lo := 0; lo < len(rows); lo += touchBlock {
		hi := min(lo+touchBlock, len(rows))
		// The stores keep the loads alive; dotBlock overwrites them.
		for i, x := range rows[lo:hi] {
			if r, ok := x.(DenseRow); ok && len(r) > 0 {
				out[lo+i] = r[0]
			}
		}
		dotBlock(rows[lo:hi], theta, out[lo:hi])
	}
}

// touchBlock is how many rows DotRows touches ahead of the arithmetic: a few
// times the misses a core keeps in flight, and little enough that the rows
// are still in the nearest cache when the arithmetic reaches them.
const touchBlock = 64

func dotBlock(rows []Row, theta, out []float64) {
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r0, ok0 := rows[i].(DenseRow)
		r1, ok1 := rows[i+1].(DenseRow)
		r2, ok2 := rows[i+2].(DenseRow)
		r3, ok3 := rows[i+3].(DenseRow)
		d := len(r0)
		if !(ok0 && ok1 && ok2 && ok3) || len(r1) != d || len(r2) != d || len(r3) != d {
			for j := i; j < i+4; j++ {
				out[j] = rows[j].Dot(theta)
			}
			continue
		}
		t := theta[:d]
		r1, r2, r3 = r1[:d], r2[:d], r3[:d]
		var s0, s1, s2, s3 float64
		for j, tj := range t {
			s0 += r0[j] * tj
			s1 += r1[j] * tj
			s2 += r2[j] * tj
			s3 += r3[j] * tj
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(rows); i++ {
		out[i] = rows[i].Dot(theta)
	}
}
