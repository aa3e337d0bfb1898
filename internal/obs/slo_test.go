package obs

import (
	"testing"
	"time"
)

func at(sec int64) time.Time { return time.Unix(sec, 0) }

func TestSLOWindowBasicMath(t *testing.T) {
	w := NewSLOWindow(10)
	now := at(1000)
	for i := 0; i < 8; i++ {
		w.Record(now, false, false)
	}
	w.Record(now, true, false) // one 5xx
	w.Record(now, false, true) // one slow
	total, errors, slow := w.Snapshot(now)
	if total != 10 || errors != 1 || slow != 1 {
		t.Fatalf("snapshot = %d/%d/%d, want 10/1/1", total, errors, slow)
	}
	if v, ok := w.Availability(now); !ok || v != 0.9 {
		t.Fatalf("availability = %v,%v, want 0.9,true", v, ok)
	}
	if v, ok := w.LatencyAttainment(now); !ok || v != 0.9 {
		t.Fatalf("attainment = %v,%v, want 0.9,true", v, ok)
	}
}

func TestSLOWindowSlides(t *testing.T) {
	w := NewSLOWindow(5)
	// One error at t=100, then clean seconds after it.
	w.Record(at(100), true, true)
	for sec := int64(101); sec <= 104; sec++ {
		w.Record(at(sec), false, false)
	}
	if total, errors, _ := w.Snapshot(at(104)); total != 5 || errors != 1 {
		t.Fatalf("window at 104 = %d/%d, want 5/1", total, errors)
	}
	// At t=105 the error second has slid out.
	if total, errors, _ := w.Snapshot(at(105)); total != 4 || errors != 0 {
		t.Fatalf("window at 105 = %d/%d, want 4/0", total, errors)
	}
	// Far in the future everything has expired; gauges report not-ok.
	if _, ok := w.Availability(at(10_000)); ok {
		t.Fatal("empty window must report ok=false")
	}
}

func TestSLOWindowRingReuse(t *testing.T) {
	w := NewSLOWindow(3)
	w.Record(at(7), true, false) // lands in slot 7%3=1
	// 10 lands in the same slot and must evict second 7, not merge with it.
	w.Record(at(10), false, false)
	total, errors, _ := w.Snapshot(at(10))
	if total != 1 || errors != 0 {
		t.Fatalf("after ring reuse = %d/%d, want 1/0", total, errors)
	}
}
