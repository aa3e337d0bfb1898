package compute

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withParallelism runs fn under a fixed degree, restoring the previous
// one afterwards (the pool is process-wide state).
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

// Every index in [0, n) must be visited exactly once, for chunked and
// degenerate shapes alike.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 7} {
		withParallelism(t, p, func() {
			for _, n := range []int{0, 1, 2, 3, 16, 1000, 1023} {
				counts := make([]int32, n)
				For(n, 3, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("p=%d n=%d: bad chunk [%d,%d)", p, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, c)
					}
				}
			}
		})
	}
}

func TestChunksRespectsGrainAndDegree(t *testing.T) {
	withParallelism(t, 4, func() {
		if c := Chunks(100, 10); c != 4 {
			t.Fatalf("Chunks(100,10)=%d, want 4 (degree cap)", c)
		}
		if c := Chunks(25, 10); c != 2 {
			t.Fatalf("Chunks(25,10)=%d, want 2 (grain floor)", c)
		}
		if c := Chunks(9, 10); c != 1 {
			t.Fatalf("Chunks(9,10)=%d, want 1", c)
		}
		if c := Chunks(0, 10); c != 0 {
			t.Fatalf("Chunks(0,10)=%d, want 0", c)
		}
	})
	withParallelism(t, 1, func() {
		if c := Chunks(1000, 1); c != 1 {
			t.Fatalf("Chunks at degree 1 = %d, want 1", c)
		}
	})
}

// At parallelism 1 every loop must run serially in the caller goroutine,
// in order.
func TestDegreeOneIsSerialInOrder(t *testing.T) {
	withParallelism(t, 1, func() {
		var seen []int
		Run(5, func(i int) { seen = append(seen, i) })
		for i, v := range seen {
			if v != i {
				t.Fatalf("out-of-order serial execution: %v", seen)
			}
		}
		if len(seen) != 5 {
			t.Fatalf("ran %d tasks, want 5", len(seen))
		}
	})
}

// Nested parallel loops must complete without deadlock even when the
// helper budget is exhausted by the outer level.
func TestNestedLoopsDoNotDeadlock(t *testing.T) {
	withParallelism(t, 2, func() {
		var total atomic.Int64
		Run(8, func(int) {
			For(100, 1, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		})
		if total.Load() != 800 {
			t.Fatalf("total=%d, want 800", total.Load())
		}
	})
}

// Concurrent loops from many goroutines (the serve worker-pool pattern)
// must all complete and stay within budget. Run under -race in CI.
func TestConcurrentLoopsComplete(t *testing.T) {
	withParallelism(t, 4, func() {
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sum atomic.Int64
				For(1000, 10, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if sum.Load() != 999*1000/2 {
					t.Errorf("sum=%d", sum.Load())
				}
			}()
		}
		wg.Wait()
	})
}

// The chunk decomposition must depend only on (n, grain, degree): two
// identical ForChunks calls see identical chunk boundaries.
func TestChunkingDeterministic(t *testing.T) {
	withParallelism(t, 3, func() {
		shape := func() []int {
			var mu sync.Mutex
			var bounds []int
			ForChunks(1000, 1, func(chunk, lo, hi int) {
				mu.Lock()
				bounds = append(bounds, chunk, lo, hi)
				mu.Unlock()
			})
			return bounds
		}
		a, b := shape(), shape()
		if len(a) != len(b) {
			t.Fatalf("chunk count changed: %d vs %d", len(a)/3, len(b)/3)
		}
		seen := map[int]bool{}
		for i := 0; i < len(a); i += 3 {
			seen[a[i]] = true
		}
		if len(seen) != len(a)/3 {
			t.Fatalf("duplicate chunk ids: %v", a)
		}
	})
}

func TestReduceFloatsMatchesOrderedTree(t *testing.T) {
	if got := ReduceFloats(nil); got != 0 {
		t.Fatalf("empty reduce = %v", got)
	}
	if got := ReduceFloats([]float64{3.5}); got != 3.5 {
		t.Fatalf("single reduce = %v", got)
	}
	// (((1+2)+(3+4))+5)
	if got := ReduceFloats([]float64{1, 2, 3, 4, 5}); got != ((1+2)+(3+4))+5 {
		t.Fatalf("tree reduce = %v", got)
	}
}

func TestReduceVecsMatchesScalarTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []int{1, 2, 3, 5, 8} {
		parts := make([][]float64, c)
		scalars := make([][]float64, 3) // per-element copies for ReduceFloats
		for e := range scalars {
			scalars[e] = make([]float64, c)
		}
		for i := range parts {
			parts[i] = make([]float64, 3)
			for e := range parts[i] {
				parts[i][e] = rng.NormFloat64()
				scalars[e][i] = parts[i][e]
			}
		}
		got := ReduceVecs(parts)
		for e := range got {
			want := ReduceFloats(scalars[e])
			if got[e] != want {
				t.Fatalf("c=%d elem %d: ReduceVecs=%v ReduceFloats=%v", c, e, got[e], want)
			}
		}
	}
}

// TriangleRanges must cover [0, n) exactly and balance the triangular
// cost to within a factor ~2 of ideal.
func TestTriangleRangesCoverAndBalance(t *testing.T) {
	withParallelism(t, 4, func() {
		for _, n := range []int{1, 2, 3, 4, 5, 64, 1000} {
			rs := TriangleRanges(n)
			if len(rs) == 0 || rs[0].Lo != 0 || rs[len(rs)-1].Hi != n {
				t.Fatalf("n=%d: ranges %v do not cover [0,%d)", n, rs, n)
			}
			total := n * (n + 1) / 2
			prev := 0
			for _, r := range rs {
				if r.Lo != prev || r.Hi <= r.Lo {
					t.Fatalf("n=%d: gap or empty range in %v", n, rs)
				}
				prev = r.Hi
				cost := 0
				for i := r.Lo; i < r.Hi; i++ {
					cost += n - i
				}
				if n >= 64 && cost > 2*total/len(rs)+n {
					t.Fatalf("n=%d: range %v cost %d too unbalanced (total %d over %d)", n, r, cost, total, len(rs))
				}
			}
		}
	})
}

func TestSetParallelismDefaults(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	if got := SetParallelism(0); got < 1 {
		t.Fatalf("SetParallelism(0) = %d", got)
	}
	if got := SetParallelism(5); got != 5 || Parallelism() != 5 {
		t.Fatalf("SetParallelism(5) = %d, Parallelism() = %d", got, Parallelism())
	}
}

// recoverRun runs Run(tasks, fn) and returns what it panicked with.
func recoverRun(tasks int, fn func(int)) (v any) {
	defer func() { v = recover() }()
	Run(tasks, fn)
	return nil
}

// bothStarted blocks a task until two tasks have started, so that at
// degree 2 one of them runs on a helper goroutine and one on the caller.
func bothStarted(t *testing.T, started *atomic.Int32) {
	started.Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < 2 {
		if time.Now().After(deadline) {
			t.Error("second task never started")
			return
		}
		runtime.Gosched()
	}
}

// A panic on a pool helper must reach the caller of Run as a panic it can
// recover, not end the process; the helper's token and busy gauge must come
// back, and the pool must keep working.
func TestHelperPanicReachesCaller(t *testing.T) {
	withParallelism(t, 2, func() {
		var started atomic.Int32
		v := recoverRun(2, func(i int) {
			bothStarted(t, &started)
			panic(fmt.Sprintf("boom %d", i))
		})
		if s, _ := v.(string); !strings.HasPrefix(s, "boom ") {
			t.Fatalf("Run panicked with %v, want a task's boom", v)
		}
		if b := metrics.helpersBusy.Value(); b != 0 {
			t.Fatalf("helpers_busy = %d after the panic, want 0", b)
		}
		if got := len(cur.Load().tokens); got != 1 {
			t.Fatalf("%d helper tokens back in the budget, want 1", got)
		}
		var ran atomic.Int32
		Run(8, func(int) { ran.Add(1) })
		if ran.Load() != 8 {
			t.Fatalf("pool ran %d of 8 tasks after a panic", ran.Load())
		}
	})
}

// When one task panics, Run re-panics only after every other task already
// running has finished, whichever goroutine the panic was on.
func TestPanicWaitsForHelpers(t *testing.T) {
	withParallelism(t, 2, func() {
		var started atomic.Int32
		var done atomic.Bool
		v := recoverRun(2, func(i int) {
			bothStarted(t, &started)
			if i == 0 {
				panic("boom")
			}
			time.Sleep(20 * time.Millisecond)
			done.Store(true)
		})
		if v != "boom" {
			t.Fatalf("Run panicked with %v, want boom", v)
		}
		if !done.Load() {
			t.Fatal("Run panicked before the other task finished")
		}
	})
}
