package core

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
)

// Factor represents the unscaled covariance of Theorem 1 as a linear map L:
// if z ~ N(0, I_rank) then L·z ~ N(0, H⁻¹JH⁻¹). Draws for any sample
// size n are obtained by scaling with √(1/n − 1/N) — the paper's
// "sampling by scaling" optimization (§4.3), which lets the Sample Size
// Estimator probe many n without re-invoking a sampler.
//
// A factor is applied to a group of draws at a time, on the class lanes
// with the draws as the classes: product readies what the group's draws
// share in a pool chunk's groupScratch (GradFactor's U = M·Z), and scatter
// writes any run of the group's draws from there into a layout — a
// models.Block's interleaved storage, plain vectors, or L's own columns.
// linalg.ClassScores sums each lane from +0 in index order, as a row's dot
// product does, so every coordinate has the bits the one-draw product gives
// it. A factor is immutable: a Plan shares one across goroutines, each with
// its own scratch.
type Factor interface {
	// Dim is the parameter dimension d.
	Dim() int
	// Rank is the latent dimension r (number of independent normal draws
	// consumed per sample).
	Rank() int
	// product readies s to scatter the draws zs, one group.
	product(zs [][]float64, s *groupScratch)
	// scatter writes L·zs[g] for g0 ≤ g < g1 of s's group as draws 0 …
	// g1−g0−1 of l.
	scatter(s *groupScratch, g0, g1 int, l layout)
}

// groupDraws is the fewest draws the estimators apply a factor to at once,
// and the most a dense run interleaves: from about eight classes a
// linalg.ClassScores pass over a row of M or L pays for interleaving them.
const groupDraws = 8

// groupScratch is one goroutine's scratch for applying a factor to a group
// of draws: the group's normals, a run of them interleaved with the draws
// as the classes (stride kp = linalg.ClassPad of the run), the Gram side's
// U = M·Z for the group interleaved likewise, one row's scores, and the
// Gram side's per-draw sums and compacted coefficients.
type groupScratch struct {
	zs   [][]float64
	z    []float64 // draw i's normal k at k·kp + i
	u    []float64 // row r of U: draw i at r·kp + i
	kp   int
	w    []float64
	sums []float64
	coef []float64
	at   []int
}

// interleave sets z to the draws zs, rank normals each, interleaved.
func (s *groupScratch) interleave(zs [][]float64, rank int) {
	g := len(zs)
	s.kp = linalg.ClassPad(g)
	s.z = linalg.ClassBlock(s.z, g, rank)
	for i, z := range zs {
		linalg.SetClasses(s.z, g, i, z, 1)
	}
}

// rowScores hands put each row r of a times the g interleaved draws in z,
// in row order, one linalg.ClassScores call a row.
func (s *groupScratch) rowScores(a *linalg.Dense, g int, put func(r int, w []float64)) {
	w := grow(&s.w, g)
	for r := range a.Rows {
		linalg.ClassScores(w, a.Row(r), s.z)
		put(r, w)
	}
}

// A layout is where scatter puts draws: coordinate p = c·rows + j of draw i
// at t[j·stride + i·step + c], for c < ns. A models.Block's storage is the
// one its Vectors describes (blockLayout); plain vectors one after another
// are (rows = d, ns = 1, stride = 1, step = d).
type layout struct {
	t                      []float64
	rows, ns, stride, step int
}

// plain lays draws out as d-vectors one after another in t.
func plain(t []float64, d int) layout {
	return layout{t: t, rows: d, ns: 1, stride: 1, step: d}
}

// blockLayout lays draws out as a models.Block's vectors.
func blockLayout(v models.BlockVectors) layout {
	return layout{t: v.T, rows: v.Rows, ns: v.Scores, stride: v.Stride, step: v.Step}
}

// from returns l with its draw 0 at l's draw i.
func (l layout) from(i int) layout {
	l.t = l.t[i*l.step:]
	return l
}

// off is where coordinate p of draw 0 goes; draw i's is i·step on.
func (l layout) off(p int) int {
	if l.ns == 1 {
		return p * l.stride
	}
	c := p / l.rows
	return (p-c*l.rows)*l.stride + c
}

// column returns where draw i's class c starts: its coordinates
// c·rows + j lie at [j·stride] for j < rows.
func (l layout) column(i, c int) []float64 { return l.t[i*l.step+c:] }

// scale multiplies draws 0 … n−1 of l by a.
func (l layout) scale(n int, a float64) {
	for i := range n {
		for c := range l.ns {
			col := l.column(i, c)
			for j := range l.rows {
				col[j*l.stride] *= a
			}
		}
	}
}

// shift overwrites each coordinate w of draws 0 … n−1 of l with
// theta[p] + a·w.
func (l layout) shift(n int, theta []float64, a float64) {
	for i := range n {
		for c := range l.ns {
			col, th := l.column(i, c), theta[c*l.rows:][:l.rows]
			for j, v := range th {
				col[j*l.stride] = v + a*col[j*l.stride]
			}
		}
	}
}

// applyPlain writes L·zs[i] to dst[i·d : (i+1)·d] for every draw, a group
// of groupDraws at a time.
func applyPlain(f Factor, zs [][]float64, dst []float64, s *groupScratch) {
	d := f.Dim()
	for g0 := 0; g0 < len(zs); g0 += groupDraws {
		g1 := min(len(zs), g0+groupDraws)
		f.product(zs[g0:g1], s)
		f.scatter(s, 0, g1-g0, plain(dst[g0*d:], d))
	}
}

// applyOne overwrites dst (len d) with L·z (len(z) = Rank): a group of one
// draw, written as a plain vector.
func applyOne(f Factor, z, dst []float64) {
	applyPlain(f, [][]float64{z}, dst, new(groupScratch))
}

// Inflate wraps f so every draw it writes is scaled by (1 + inflation) — the
// footnote-2 conservatism knob (Options.VarianceInflation). inflation <= 0
// returns f unchanged.
func Inflate(f Factor, inflation float64) Factor {
	if inflation <= 0 {
		return f
	}
	return &inflatedFactor{f: f, s: 1 + inflation}
}

type inflatedFactor struct {
	f Factor
	s float64
}

// Dim implements Factor.
func (f *inflatedFactor) Dim() int { return f.f.Dim() }

// Rank implements Factor.
func (f *inflatedFactor) Rank() int { return f.f.Rank() }

func (f *inflatedFactor) product(zs [][]float64, s *groupScratch) { f.f.product(zs, s) }

// scatter scales the wrapped factor's draws where they land.
func (f *inflatedFactor) scatter(s *groupScratch, g0, g1 int, l layout) {
	f.f.scatter(s, g0, g1, l)
	l.scale(g1-g0, f.s)
}

// DenseFactor holds an explicit d x r factor L with L·Lᵀ = H⁻¹JH⁻¹. It is
// produced by the ClosedForm and InverseGradients methods and by
// ObservedFisher when d ≤ n. Its group is only the draws: scatter
// multiplies L by the run of them it writes, at most groupDraws at a time,
// one linalg.ClassScores call per row of L, and puts each row's
// draws in place. A run of g draws costs d·r·g multiply-adds on the class
// lanes. A statistics method builds L in the d x d matrix it eigensolved,
// so L.Data keeps that matrix's d² capacity alive.
type DenseFactor struct {
	L *linalg.Dense
}

// Dim implements Factor.
func (f *DenseFactor) Dim() int { return f.L.Rows }

// Rank implements Factor.
func (f *DenseFactor) Rank() int { return f.L.Cols }

func (f *DenseFactor) product(zs [][]float64, s *groupScratch) { s.zs = zs }

// scatter takes the run groupDraws draws at a time, which bounds the
// interleaved normals it keeps.
func (f *DenseFactor) scatter(s *groupScratch, g0, g1 int, l layout) {
	for a := g0; a < g1; a += groupDraws {
		b := min(g1, a+groupDraws)
		s.interleave(s.zs[a:b], f.L.Cols)
		la := l.from(a - g0)
		s.rowScores(f.L, b-a, func(p int, w []float64) {
			t := la.t[la.off(p):]
			for i, v := range w {
				t[i*la.step] = v
			}
		})
	}
}

// GradFactor represents L = Q_cᵀ·M without materializing the d x r matrix:
// Q_c is the mean-centered per-example gradient matrix (rows kept sparse)
// and M is a small n x r matrix derived from the Gram-side
// eigendecomposition. A draw is Σᵢ uᵢ·qᵢ − (Σᵢ uᵢ)·q̄ with u = M·z. A
// group of g draws costs n·r·g multiply-adds for U = M·Z on the class lanes
// (one linalg.ClassScores call a row of M), then each run g·(nnz(Q) +
// 2d) for the rows, the mean and the zeroing — O(d) memory and time per
// draw for high-dimensional models (paper §3.4, §4.3). M is built in the
// n x n Gram matrix's storage and keeps its n² capacity alive.
type GradFactor struct {
	rows []dataset.Row // qᵢ, uncentered
	mean []float64     // q̄
	m    *linalg.Dense // n x r
	dim  int
}

// Dim implements Factor.
func (f *GradFactor) Dim() int { return f.dim }

// Rank implements Factor.
func (f *GradFactor) Rank() int { return f.m.Cols }

// product sets U = M·Z for the group: each draw's entry a row of M's dot
// with the draw.
func (f *GradFactor) product(zs [][]float64, s *groupScratch) {
	s.interleave(zs, f.m.Cols)
	s.u = linalg.ClassBlock(s.u, len(zs), f.m.Rows)
	s.rowScores(f.m, len(zs), func(r int, w []float64) { copy(s.u[r*s.kp:], w) })
}

// scatter starts each draw at +0, adds the rows in row order — row i takes
// stored entry times uᵢ into every draw whose uᵢ is not zero, as
// Row.AddTo(dst, uᵢ) would — and adds −(Σᵢ uᵢ)·q̄ last, unless that sum
// is zero, as Axpy would: the one-draw formulation's adds per coordinate.
func (f *GradFactor) scatter(s *groupScratch, g0, g1 int, l layout) {
	n := g1 - g0
	l.zero(n)
	sums := grow(&s.sums, n)
	clear(sums)
	for r, row := range f.rows {
		u := s.u[r*s.kp+g0 : r*s.kp+g1]
		for i, v := range u {
			sums[i] += v
		}
		tm := s.compact(u, l)
		if q, ok := row.(*dataset.SparseRow); ok {
			l.add(q.Idx, q.Val, tm)
		} else {
			l.add(nil, row.(dataset.DenseRow), tm) // GradRow makes no other row
		}
	}
	for i, sum := range sums {
		sums[i] = -sum
	}
	l.add(nil, f.mean, s.compact(sums, l))
}

// terms are the non-zero coefficients of a group's draws for one row, in
// draw order, each with its draw's slot offset in a layout; adjacent
// when there is one score and the offsets are 0, 1, 2, ….
type terms struct {
	coef     []float64
	at       []int
	adjacent bool
}

// compact returns the non-zero coefficients of u as terms, draw i's at
// offset i·step of l.
func (s *groupScratch) compact(u []float64, l layout) terms {
	coef, at := grow(&s.coef, len(u)), grow(&s.at, len(u))
	m := 0
	for i, v := range u {
		if v != 0 {
			coef[m], at[m] = v, i*l.step
			m++
		}
	}
	return terms{coef[:m], at[:m], m == len(u) && l.step == 1 && l.ns == 1}
}

// zero sets draws 0 … n−1 of l to +0.
func (l layout) zero(n int) {
	if l.step == l.ns && n*l.ns == l.stride {
		clear(l.t[:l.rows*l.stride]) // the draws fill every row
		return
	}
	for i := range n {
		for c := range l.ns {
			col := l.column(i, c)
			for j := range l.rows {
				col[j*l.stride] = 0
			}
		}
	}
}

// add adds each term's coef·v to coordinate p of its draw, for every
// stored entry (p, v) of a row: val[e] at idx[e], or at e when idx is nil.
// Each coordinate of a draw takes one add, so rows added one after another
// keep their order. Adjacent terms go four draws an entry.
func (l layout) add(idx []int32, val []float64, tm terms) {
	if len(tm.coef) == 0 {
		return
	}
	if idx != nil {
		val = val[:len(idx)]
	}
	if !tm.adjacent {
		for e, v := range val {
			p := e
			if idx != nil {
				p = int(idx[e])
			}
			t := l.t[l.off(p):]
			for h, a := range tm.coef {
				t[tm.at[h]] += a * v
			}
		}
		return
	}
	coef, h := tm.coef, 0
	for ; h+4 <= len(coef); h += 4 {
		a0, a1, a2, a3 := coef[h], coef[h+1], coef[h+2], coef[h+3]
		if idx == nil {
			for p, v := range val {
				add4(l.t[p*l.stride+h:], a0, a1, a2, a3, v)
			}
			continue
		}
		for e, p := range idx {
			add4(l.t[int(p)*l.stride+h:], a0, a1, a2, a3, val[e])
		}
	}
	for ; h < len(coef); h++ {
		a := coef[h]
		for e, v := range val {
			p := e
			if idx != nil {
				p = int(idx[e])
			}
			l.t[p*l.stride+h] += a * v
		}
	}
}

// add4 adds a0·v … a3·v to t[0] … t[3].
func add4(t []float64, a0, a1, a2, a3, v float64) {
	t = t[:4]
	t[0] += a0 * v
	t[1] += a1 * v
	t[2] += a2 * v
	t[3] += a3 * v
}

// grow returns (*buf)[:n], growing *buf first if it is shorter.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Covariance materializes L·Lᵀ for diagnostics on low-dimensional problems
// (a lazy factor's L is recovered from groups of unit vectors, which
// defeats the purpose of the lazy form at scale).
func Covariance(f Factor) *linalg.Dense {
	if dense, ok := f.(*DenseFactor); ok {
		return linalg.Syrk(dense.L)
	}
	d, r := f.Dim(), f.Rank()
	l := linalg.NewDense(d, r)
	zs := make([][]float64, min(r, groupDraws))
	for i := range zs {
		zs[i] = make([]float64, r)
	}
	var s groupScratch
	for j0 := 0; j0 < r; j0 += groupDraws {
		g := min(r-j0, groupDraws)
		for i := range g {
			zs[i][j0+i] = 1
		}
		f.product(zs[:g], &s)
		// Column j0+i of L is draw i.
		f.scatter(&s, 0, g, layout{t: l.Data[j0:], rows: d, ns: 1, stride: r, step: 1})
		for i := range g {
			zs[i][j0+i] = 0
		}
	}
	return linalg.Syrk(l) // L·Lᵀ without computing both triangles
}

// factorBytes is the memory a factor keeps alive (nil counts nothing). L
// and M count by capacity: they live in the eigensolved matrix's storage.
func factorBytes(f Factor) int64 {
	switch f := f.(type) {
	case *inflatedFactor:
		return factorBytes(f.f)
	case *DenseFactor:
		return int64(cap(f.L.Data)) * 8
	case *GradFactor:
		return datasetBytes(&dataset.Dataset{X: f.rows}) + int64(len(f.mean)+cap(f.m.Data))*8
	}
	return 0
}
