package main

import (
	"math"
	"runtime"
	"time"

	"blinkml/internal/stat"
)

// quantile is the nearest-rank p-quantile (the smallest value with at least
// p of the sample at or below it). The gated timings are p10s: on a shared
// 2-vCPU box one op spreads 1.6× from q05 to q90 inside a run, and the low
// tail is the part a noisy neighbour cannot move.
var quantile = stat.Quantile

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one timed block of identical ops: per-op wall time, the
// TotalAlloc delta over the whole block, and how many ops failed their
// correctness check.
type phase struct {
	ms     []float64
	bytes  uint64
	failed int
}

func (p phase) p(q float64) float64 { return quantile(p.ms, q) }

// allocPerOp is the phase's allocation volume per op in units of `unit`
// bytes.
func (p phase) allocPerOp(unit float64) float64 {
	return float64(p.bytes) / float64(len(p.ms)) / unit
}

// run adds ops lo..hi-1 to the phase, back to back (closed loop, one
// caller). An op that returns an error counts as failed; its time is still
// recorded.
func (p *phase) run(lo, hi int, op func(i int) error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := lo; i < hi; i++ {
		start := time.Now()
		err := op(i)
		p.ms = append(p.ms, ms(time.Since(start)))
		if err != nil {
			p.failed++
			logf("op %d failed: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	p.bytes += after.TotalAlloc - before.TotalAlloc
}

// runPhase runs op n times in one go after a forced GC.
func runPhase(n int, op func(i int) error) phase {
	var p phase
	runtime.GC()
	p.run(0, n, op)
	return p
}

// timeIt returns fn's wall time in milliseconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return ms(time.Since(start))
}

// bestOf returns the minimum wall time of k runs of fn, in milliseconds —
// the statistic for the isolated leaf probes, which are too short to gate.
func bestOf(k int, fn func()) float64 {
	ts := make([]float64, k)
	for i := range ts {
		ts[i] = timeIt(fn)
	}
	return minOf(ts)
}
