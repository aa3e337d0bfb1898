// Package compute is the process-wide parallel execution layer: one
// bounded worker budget shared by every kernel in the repository (linalg
// matrix products, per-example gradient accumulation, statistics
// construction, sample-size probes, batched prediction). Layers above
// never spawn their own unbounded goroutines; they split work into
// deterministic chunks with For/ForChunks and the pool supplies at most
// Parallelism()−1 helper goroutines across the whole process, so a loaded
// server saturates the CPU instead of oversubscribing it.
//
// Determinism contract: the way a loop is chunked depends only on the
// loop bounds, the grain, and the configured parallelism degree — never
// on how many helpers happened to be free. Combined with the ordered
// reductions in this package, every computation is bit-identical across
// runs at a fixed parallelism degree, and at parallelism 1 every loop
// collapses to a single chunk executed in caller order (the exact serial
// semantics).
package compute

import (
	"expvar"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinkml/internal/obs"
)

// state is the immutable pool configuration; SetParallelism swaps the
// whole value atomically so in-flight loops keep a consistent view.
type state struct {
	degree int
	tokens chan struct{} // helper budget, capacity degree-1
}

var cur atomic.Pointer[state]

func init() {
	SetParallelism(0)
}

// SetParallelism fixes the process-wide parallelism degree: the number of
// goroutines (including callers) that may execute pool work at once, and
// the degree the deterministic chunking is derived from. n <= 0 resets to
// runtime.GOMAXPROCS(0). It returns the degree actually installed.
//
// Loops already in flight keep the budget they started with; the new
// budget applies to subsequent loops.
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &state{degree: n, tokens: make(chan struct{}, n-1)}
	for i := 0; i < n-1; i++ {
		s.tokens <- struct{}{}
	}
	cur.Store(s)
	metrics.parallelism.Set(int64(n))
	return n
}

// Parallelism returns the configured degree.
func Parallelism() int { return cur.Load().degree }

// Chunks returns the number of pieces For and ForChunks split n items
// into: at most Parallelism(), and never so many that a chunk would hold
// fewer than grain items (grain <= 0 is treated as 1). The result depends
// only on (n, grain, degree) — this is what makes chunked reductions
// deterministic at a fixed degree.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	c := n / grain
	if c < 1 {
		c = 1
	}
	if p := Parallelism(); c > p {
		c = p
	}
	return c
}

// chunkBounds returns the half-open range of chunk i when n items are
// split into c balanced chunks.
func chunkBounds(n, c, i int) (lo, hi int) {
	return i * n / c, (i + 1) * n / c
}

// Run executes fn(0), …, fn(tasks−1) with the pool: the caller works
// through tasks alongside up to min(tasks, Parallelism())−1 helper
// goroutines drawn from the shared budget. If no helpers are free (other
// loops hold the budget) the caller runs everything itself — Run never
// blocks waiting for a token, so nested Run/For calls cannot deadlock.
// Tasks are claimed dynamically, so unequal task costs balance across
// workers; fn must not assume any particular task→goroutine assignment.
//
// A panic in fn, on a helper or on the caller, stops further tasks from
// being claimed; once every helper has exited, Run panics on the caller
// with the first value recovered, so the caller's own recover (a task
// runner's containment) sees it and the process survives.
func Run(tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	s := cur.Load()
	if tasks == 1 || s.degree == 1 {
		// Serial fast path still opens a ledger pool frame: the outermost
		// frame charges the caller's busy time to the owning job; nested
		// frames (a serial loop inside a parallel kernel) charge nothing.
		// Free (one atomic load) when no ledger is bound.
		frame := obs.EnterPool()
		defer frame.Exit(0)
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	metrics.parallelCalls.Add(1)
	metrics.tasksRun.Add(int64(tasks))
	start := time.Now()
	defer func() {
		metrics.runLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}()
	r := &run{tasks: tasks, fn: fn}
	want := tasks - 1
	if want > s.degree-1 {
		want = s.degree - 1
	}
	// Helper goroutines inherit the caller's resource ledger so their work
	// is attributed to the same job; each helper charges its own busy time
	// and the tasks it executed count as steals.
	ledger := obs.BoundLedger()
acquire:
	for h := 0; h < want; h++ {
		select {
		case <-s.tokens:
			r.wg.Add(1)
			metrics.helpersSpawned.Add(1)
			metrics.helpersBusy.Add(1)
			go func() {
				defer r.wg.Done()
				defer func() { s.tokens <- struct{}{} }()
				defer metrics.helpersBusy.Add(-1)
				defer obs.BindLedger(ledger)()
				var n int64
				frame := obs.EnterPool()
				defer func() { frame.Exit(n) }()
				r.work(&n)
			}()
		default:
			break acquire // budget exhausted; the caller picks up the slack
		}
	}
	// The caller charges only its own work interval (not the wg.Wait), and
	// only at the outermost pool frame — nested Run calls don't double-bill.
	var n int64
	frame := obs.EnterPool()
	r.work(&n)
	frame.Exit(0)
	r.wg.Wait()
	if r.panicked.Load() {
		panic(r.first)
	}
}

// run is one parallel Run call: the task counter its workers claim from,
// the helpers to wait for, and the first panic any task raised.
type run struct {
	next     atomic.Int64
	tasks    int
	fn       func(task int)
	wg       sync.WaitGroup
	panicked atomic.Bool
	first    any // written once, by the worker that set panicked
}

// work runs claimed tasks until none are left, counting them in *n. A
// panic is recovered here, recorded if it is the first, and ends the
// claiming everywhere.
func (r *run) work(n *int64) {
	defer func() {
		if v := recover(); v != nil {
			if r.panicked.CompareAndSwap(false, true) {
				r.first = v
			}
			r.next.Store(int64(r.tasks))
		}
	}()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.tasks {
			return
		}
		r.fn(i)
		*n++
	}
}

// ForChunks splits [0, n) into Chunks(n, grain) contiguous balanced
// chunks and calls fn(chunk, lo, hi) for each, in parallel on the pool.
// It returns the chunk count so callers can pre-size per-chunk partial
// results for an ordered reduction (see Reduce*). At parallelism 1 (or
// when n/grain < 2) this is exactly one serial call fn(0, 0, n).
//
// Callers that allocate per-chunk partials BEFORE the loop must instead
// call Chunks once and pass the count to ForChunksN, so a concurrent
// SetParallelism cannot desynchronize the two.
func ForChunks(n, grain int, fn func(chunk, lo, hi int)) int {
	return ForChunksN(n, Chunks(n, grain), fn)
}

// ForChunksN is ForChunks with an explicit chunk count (normally obtained
// from Chunks). chunks is clamped to [1, n] for n > 0; n <= 0 runs
// nothing.
func ForChunksN(n, chunks int, fn func(chunk, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	Run(chunks, func(i int) {
		lo, hi := chunkBounds(n, chunks, i)
		fn(i, lo, hi)
	})
	return chunks
}

// For runs fn over [0, n) in parallel contiguous chunks of at least grain
// items. Use it for loops whose iterations are independent (each output
// written by exactly one iteration); use ForChunks when per-chunk state
// must be reduced afterwards.
func For(n, grain int, fn func(lo, hi int)) {
	ForChunks(n, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// Range is a half-open index interval.
type Range struct{ Lo, Hi int }

// TriangleRanges partitions [0, n) into at most Parallelism() contiguous
// ranges balanced for triangular loops where iteration i costs n−i (the
// upper-triangle Gram/SYRK pattern): every range carries roughly equal
// total cost. Deterministic in (n, degree); returns nil for n <= 0.
func TriangleRanges(n int) []Range {
	if n <= 0 {
		return nil
	}
	p := Parallelism()
	if p > n {
		p = n
	}
	total := n * (n + 1) / 2
	ranges := make([]Range, 0, p)
	lo, acc := 0, 0
	for c := 0; c < p && lo < n; c++ {
		target := (c + 1) * total / p
		hi := lo
		for hi < n && (acc < target || hi == lo) {
			acc += n - hi
			hi++
		}
		if c == p-1 {
			hi = n
		}
		ranges = append(ranges, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return ranges
}

// poolMetrics are the pool's expvar series.
type poolMetrics struct {
	parallelism    *expvar.Int    // gauge: configured degree
	parallelCalls  *expvar.Int    // Run invocations that went parallel
	tasksRun       *expvar.Int    // tasks executed by parallel Run calls
	helpersSpawned *expvar.Int    // helper goroutines actually obtained
	helpersBusy    *expvar.Int    // gauge: helpers currently executing
	runLatency     *obs.Histogram // wall time of parallel Run calls (ms)
}

// metrics are published under "blinkml_compute" at package init (scraped
// together with the serve metrics at /metrics).
var metrics = func() poolMetrics {
	r := obs.NewRegistry("blinkml_compute")
	return poolMetrics{
		parallelism:    r.Int("parallelism"),
		parallelCalls:  r.Int("parallel_calls"),
		tasksRun:       r.Int("tasks_run"),
		helpersSpawned: r.Int("helpers_spawned"),
		helpersBusy:    r.Int("helpers_busy"),
		runLatency:     r.Histogram("run_ms"),
	}
}()
