package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketForBoundaries(t *testing.T) {
	cases := []struct {
		ms   float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{0.005, 0},
		{0.01, 0},     // exactly the first bound
		{0.010001, 1}, // just above it
		{0.02, 1},     // bucket 1 upper bound
		{0.04, 2},
		{10.24, 10}, // 0.01·2^10
		{10.25, 11},
		{bounds[numBounds-1], numBounds - 1},
		{bounds[numBounds-1] * 2, numBounds}, // overflow
		{1e12, numBounds},
	}
	for _, c := range cases {
		if got := bucketFor(c.ms); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
	// Every bound must land in its own bucket: bucket i covers (..., bounds[i]].
	for i, b := range bounds {
		if got := bucketFor(b); got != i {
			t.Errorf("bucketFor(bounds[%d]=%v) = %d, want %d", i, b, got, i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 100 observations of exactly 1ms: every quantile must fall inside the
	// 1ms bucket, i.e. within (bounds[i-1], bounds[i]] where bounds[i] >= 1.
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.SumMs(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("sum = %v, want 100", got)
	}
	i := bucketFor(1.0)
	lo, hi := bounds[i-1], bounds[i]
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got <= lo || got > hi {
			t.Errorf("Quantile(%v) = %v, want in (%v, %v]", q, got, lo, hi)
		}
	}
	// Bimodal: 90 fast (1ms bucket) + 10 slow (1000ms bucket). p50 stays in
	// the fast bucket; p99 must land in the slow one.
	h2 := NewHistogram()
	for i := 0; i < 90; i++ {
		h2.Observe(1.0)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1000.0)
	}
	slow := bucketFor(1000.0)
	slo, shi := bounds[slow-1], bounds[slow]
	if p50 := h2.Quantile(0.5); p50 <= lo || p50 > hi {
		t.Errorf("bimodal p50 = %v, want in fast bucket (%v, %v]", p50, lo, hi)
	}
	if p99 := h2.Quantile(0.99); p99 <= slo || p99 > shi {
		t.Errorf("bimodal p99 = %v, want in slow bucket (%v, %v]", p99, slo, shi)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := h2.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v < previous %v; quantiles must be monotone", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	h := NewHistogram()
	h.Observe(1e9) // far past the last bound
	if got, want := h.Quantile(0.5), bounds[numBounds-1]; got != want {
		t.Fatalf("overflow quantile = %v, want last bound %v", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 0.01)
				if i%100 == 0 {
					_ = h.Quantile(0.99) // concurrent reads must be safe too
					_ = h.String()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	var bucketTotal uint64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != uint64(goroutines*perG) {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Observe(3)
	s := h.String()
	for _, want := range []string{`"count":1`, `"sum_ms":3`, `"p50":`, `"p95":`, `"p99":`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %s, missing %s", s, want)
		}
	}
}
