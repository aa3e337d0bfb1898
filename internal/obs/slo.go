package obs

import (
	"sync"
	"time"
)

// DefaultSLOWindowSeconds is the sliding-window length the per-endpoint SLO
// gauges aggregate over: long enough to smooth per-second burst noise,
// short enough that an incident moves the gauge within one scrape interval.
const DefaultSLOWindowSeconds = 60

// sloBucket is one second of request outcomes. The ring reuses slots by
// epoch second, so a bucket whose second has passed out of the window is
// simply overwritten on the next write that lands in its slot.
type sloBucket struct {
	sec    int64 // epoch second this bucket currently holds
	total  uint64
	errors uint64 // 5xx responses and transport-level failures
	slow   uint64 // latency above the SLO threshold
}

// SLOWindow tracks request outcomes over a sliding window of per-second
// buckets, answering the two service-level questions per endpoint:
// availability (fraction of requests that did not fail server-side) and
// latency attainment (fraction at or under the latency threshold). Reads
// and writes take an explicit clock time so the window is exactly testable.
type SLOWindow struct {
	mu      sync.Mutex
	buckets []sloBucket
}

// NewSLOWindow returns a window of the given length in seconds
// (DefaultSLOWindowSeconds when <= 0).
func NewSLOWindow(windowSeconds int) *SLOWindow {
	if windowSeconds <= 0 {
		windowSeconds = DefaultSLOWindowSeconds
	}
	return &SLOWindow{buckets: make([]sloBucket, windowSeconds)}
}

// Record adds one finished request observed at now.
func (w *SLOWindow) Record(now time.Time, isError, isSlow bool) {
	sec := now.Unix()
	w.mu.Lock()
	defer w.mu.Unlock()
	b := &w.buckets[int(sec%int64(len(w.buckets)))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if isError {
		b.errors++
	}
	if isSlow {
		b.slow++
	}
}

// Snapshot sums the buckets inside the window ending at now.
func (w *SLOWindow) Snapshot(now time.Time) (total, errors, slow uint64) {
	sec := now.Unix()
	lo := sec - int64(len(w.buckets)) + 1
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.sec >= lo && b.sec <= sec {
			total += b.total
			errors += b.errors
			slow += b.slow
		}
	}
	return total, errors, slow
}

// Availability returns the windowed non-error fraction; ok is false when
// the window holds no requests (render nothing rather than a fake 0 or 1).
func (w *SLOWindow) Availability(now time.Time) (v float64, ok bool) {
	total, errors, _ := w.Snapshot(now)
	if total == 0 {
		return 0, false
	}
	return float64(total-errors) / float64(total), true
}

// LatencyAttainment returns the windowed fraction of requests at or under
// the latency threshold; ok is false when the window is empty.
func (w *SLOWindow) LatencyAttainment(now time.Time) (v float64, ok bool) {
	total, _, slow := w.Snapshot(now)
	if total == 0 {
		return 0, false
	}
	return float64(total-slow) / float64(total), true
}
