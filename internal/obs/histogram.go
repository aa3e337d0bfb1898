package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Histogram bucket layout: geometric base-2 buckets starting at 0.01 ms.
// Bucket i covers (bounds[i-1], bounds[i]] with bounds[i] = 0.01ms · 2^i,
// so 36 bounds span 10 µs .. ~344 s — from a single predict call to the
// longest plausible training job — at a fixed ~41% relative error, plus one
// overflow bucket. The layout is identical for every Histogram.
const (
	numBounds   = 36
	numBuckets  = numBounds + 1 // +1 overflow
	minBoundMs  = 0.01
	boundFactor = 2.0
)

// bucketBounds returns the shared upper bounds in milliseconds.
func bucketBounds() [numBounds]float64 {
	var b [numBounds]float64
	v := minBoundMs
	for i := range b {
		b[i] = v
		v *= boundFactor
	}
	return b
}

var bounds = bucketBounds()

// Histogram is a fixed-bucket log-scale latency histogram. Observe is
// lock-free (one atomic add per bucket plus a CAS loop for the sum), so it
// is safe on hot paths; quantiles are computed at read time by linear
// interpolation within the owning bucket. It implements expvar.Var, so it
// publishes into the same expvar maps as the existing counters.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sumMs  atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a latency in ms to its bucket index.
func bucketFor(ms float64) int {
	if !(ms > minBoundMs) { // catches NaN, negatives, and the first bucket
		return 0
	}
	// ceil(log2(ms/minBound)) without a loop.
	i := int(math.Ceil(math.Log2(ms / minBoundMs)))
	if i < 0 {
		return 0
	}
	if i >= numBounds {
		return numBounds // overflow bucket
	}
	// Guard float error at the boundary: ensure ms <= bounds[i].
	if ms > bounds[i] {
		i++
		if i >= numBounds {
			return numBounds
		}
	}
	return i
}

// Observe records one latency in milliseconds.
func (h *Histogram) Observe(ms float64) {
	if math.IsNaN(ms) || ms < 0 {
		ms = 0
	}
	h.counts[bucketFor(ms)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumMs.Load()
		next := math.Float64bits(math.Float64frombits(old) + ms)
		if h.sumMs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumMs returns the sum of all observed latencies in milliseconds.
func (h *Histogram) SumMs() float64 { return math.Float64frombits(h.sumMs.Load()) }

// snapshot reads the buckets once; quantile math works on the copy so a
// concurrent Observe cannot skew a single read.
func (h *Histogram) snapshot() (c [numBuckets]uint64, total uint64) {
	for i := range h.counts {
		c[i] = h.counts[i].Load()
		total += c[i]
	}
	return c, total
}

// Quantile returns the q-quantile (0 < q < 1) in milliseconds, linearly
// interpolated within the owning bucket. It returns 0 for an empty
// histogram; observations in the overflow bucket report the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	c, total := h.snapshot()
	return quantileOf(c, total, q)
}

func quantileOf(c [numBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range c {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		if i >= numBounds { // overflow bucket: no finite upper bound
			return bounds[numBounds-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return bounds[numBounds-1]
}

// String implements expvar.Var: a JSON summary with count, sum, and common
// tail quantiles. The full bucket vector is exposed on /metrics instead —
// the JSON form is for /metrics.json and /debug/vars readers.
func (h *Histogram) String() string {
	c, total := h.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sum_ms":%s,"p50":%s,"p95":%s,"p99":%s}`,
		h.count.Load(),
		jsonFloat(h.SumMs()),
		jsonFloat(quantileOf(c, total, 0.50)),
		jsonFloat(quantileOf(c, total, 0.95)),
		jsonFloat(quantileOf(c, total, 0.99)))
	return b.String()
}

// jsonFloat formats f as a valid JSON number (expvar requires String() to
// be valid JSON; %g alone can emit "+Inf").
func jsonFloat(f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
