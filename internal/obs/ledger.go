package obs

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Ledger is the per-job resource attribution record: what one training or
// tuning job *cost*, as opposed to what it *did* (the span tree). It travels
// in the job's Scope alongside the trace and recorder: a phase charges it
// from its context, the context-free compute pool and row store through
// the goroutines doing the job's work, which are bound to it (Scope.Bind).
//
// Fields split into two classes, and the split matters for testing and for
// the cluster-parity guarantee:
//
//   - Deterministic fields (rows/bytes materialized, kernel calls, flops,
//     bundle-cache traffic) depend only on the job's inputs, seed, and the
//     configured parallelism degree. At a fixed seed and degree they are
//     bit-identical across runs and identical local vs remote.
//   - CPU-class fields (pool busy time, kernel wall time, steals, queue
//     wait, registry I/O) are wall-clock observations and vary run to run.
//
// All charge methods are nil-safe and safe for concurrent use.
type Ledger struct {
	cpuNs        atomic.Int64
	kernelNs     atomic.Int64
	kernelCalls  atomic.Int64
	flops        atomic.Int64
	steals       atomic.Int64
	rows         atomic.Int64
	bytes        atomic.Int64
	bundleHits   atomic.Int64
	bundleMisses atomic.Int64
	queueWaitNs  atomic.Int64
	registryNs   atomic.Int64

	// stage is the pipeline stage currently executing (set by StartSpan via
	// the scope's ledger); charges are attributed to it. With concurrent
	// stages (tune trials) the attribution is last-writer-wins — an
	// approximation, documented as such in the README.
	stage atomic.Pointer[string]

	mu     sync.Mutex
	stages map[string]*stageCost
}

// stageCost accumulates the per-stage slice of the ledger.
type stageCost struct {
	cpuNs       atomic.Int64
	kernelCalls atomic.Int64
	rows        atomic.Int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// SetStage marks name as the currently executing stage and returns a func
// restoring the previous one. StartSpan calls this for the scope's ledger.
func (l *Ledger) SetStage(name string) func() {
	if l == nil || name == "" {
		return func() {}
	}
	prev := l.stage.Swap(&name)
	return func() { l.stage.Store(prev) }
}

// stageFor returns the named stage's accumulator, creating it if needed,
// or nil for no stage. Charges pass the current stage, l.stage.Load().
func (l *Ledger) stageFor(name *string) *stageCost {
	if name == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stages == nil {
		l.stages = make(map[string]*stageCost, 8)
	}
	sc := l.stages[*name]
	if sc == nil {
		sc = &stageCost{}
		l.stages[*name] = sc
	}
	return sc
}

// ChargeCPU charges compute-pool busy wall time (one goroutine's work
// interval; summing across goroutines approximates CPU seconds).
func (l *Ledger) ChargeCPU(d time.Duration) {
	if l == nil || d <= 0 {
		return
	}
	l.cpuNs.Add(int64(d))
	if sc := l.stageFor(l.stage.Load()); sc != nil {
		sc.cpuNs.Add(int64(d))
	}
}

// ChargeSteals counts pool tasks executed by helper goroutines rather than
// the submitting goroutine.
func (l *Ledger) ChargeSteals(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.steals.Add(n)
}

// ChargeKernels charges a phase's dense work, calls kernels of flops in all
// (shape-derived, hence deterministic) over wall time d, to the named
// stage, as Merge names it: a phase knows d only once its span has closed.
func (l *Ledger) ChargeKernels(stage string, calls int, d time.Duration, flops int64) {
	if l == nil {
		return
	}
	l.kernelNs.Add(int64(d))
	l.kernelCalls.Add(int64(calls))
	l.flops.Add(flops)
	l.stageFor(&stage).kernelCalls.Add(int64(calls))
}

// ChargeMaterialize charges rows (and their decoded bytes) read out of the
// row store into training memory.
func (l *Ledger) ChargeMaterialize(rows int, bytes int64) {
	if l == nil {
		return
	}
	l.rows.Add(int64(rows))
	l.bytes.Add(bytes)
	if sc := l.stageFor(l.stage.Load()); sc != nil {
		sc.rows.Add(int64(rows))
	}
}

// ChargeBundle counts one dataset-bundle cache lookup on a cluster worker.
func (l *Ledger) ChargeBundle(hit bool) {
	if l == nil {
		return
	}
	if hit {
		l.bundleHits.Add(1)
	} else {
		l.bundleMisses.Add(1)
	}
}

// ChargeQueueWait charges time spent queued before a worker picked the job
// up.
func (l *Ledger) ChargeQueueWait(d time.Duration) {
	if l == nil || d <= 0 {
		return
	}
	l.queueWaitNs.Add(int64(d))
}

// ChargeRegistryIO charges model-registry persistence time.
func (l *Ledger) ChargeRegistryIO(d time.Duration) {
	if l == nil || d <= 0 {
		return
	}
	l.registryNs.Add(int64(d))
}

// LedgerSnapshot is the JSON surface of a ledger: what GET /v1/jobs/{id}
// reports, what audit records persist, and what a cluster worker ships back
// so its costs rejoin the coordinator's job record.
type LedgerSnapshot struct {
	// CPUMs is compute-pool busy time summed across participating
	// goroutines (approximate CPU milliseconds). Non-deterministic.
	CPUMs float64 `json:"cpu_ms"`
	// KernelCalls and Flops count the statistics phase's dense work by
	// linalg's shape-derived operation counts (deterministic); KernelMs is
	// that phase's wall time (non-deterministic).
	KernelMs    float64 `json:"kernel_ms"`
	KernelCalls int64   `json:"kernel_calls"`
	Flops       int64   `json:"flops"`
	// Steals counts pool tasks executed by helper goroutines. Depends on
	// scheduling, hence non-deterministic.
	Steals int64 `json:"steals"`
	// RowsMaterialized / BytesMaterialized count store rows decoded into
	// training memory. Deterministic at fixed seed and degree.
	RowsMaterialized  int64   `json:"rows_materialized"`
	BytesMaterialized int64   `json:"bytes_materialized"`
	BundleHits        int64   `json:"bundle_cache_hits,omitempty"`
	BundleMisses      int64   `json:"bundle_cache_misses,omitempty"`
	QueueWaitMs       float64 `json:"queue_wait_ms,omitempty"`
	RegistryIOMs      float64 `json:"registry_io_ms,omitempty"`
	// Stages is the per-stage cost breakdown, sorted by stage name so the
	// encoding is stable.
	Stages []StageCost `json:"stages,omitempty"`
}

// StageCost is one stage's slice of the ledger, joined against the span
// stage breakdown in job status responses.
type StageCost struct {
	Stage            string  `json:"stage"`
	CPUMs            float64 `json:"cpu_ms"`
	KernelCalls      int64   `json:"kernel_calls,omitempty"`
	RowsMaterialized int64   `json:"rows_materialized,omitempty"`
}

// Snapshot returns a point-in-time copy of the ledger.
func (l *Ledger) Snapshot() *LedgerSnapshot {
	if l == nil {
		return nil
	}
	s := &LedgerSnapshot{
		CPUMs:             float64(l.cpuNs.Load()) / 1e6,
		KernelMs:          float64(l.kernelNs.Load()) / 1e6,
		KernelCalls:       l.kernelCalls.Load(),
		Flops:             l.flops.Load(),
		Steals:            l.steals.Load(),
		RowsMaterialized:  l.rows.Load(),
		BytesMaterialized: l.bytes.Load(),
		BundleHits:        l.bundleHits.Load(),
		BundleMisses:      l.bundleMisses.Load(),
		QueueWaitMs:       float64(l.queueWaitNs.Load()) / 1e6,
		RegistryIOMs:      float64(l.registryNs.Load()) / 1e6,
	}
	l.mu.Lock()
	for name, sc := range l.stages {
		s.Stages = append(s.Stages, StageCost{
			Stage:            name,
			CPUMs:            float64(sc.cpuNs.Load()) / 1e6,
			KernelCalls:      sc.kernelCalls.Load(),
			RowsMaterialized: sc.rows.Load(),
		})
	}
	l.mu.Unlock()
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Stage < s.Stages[j].Stage })
	return s
}

// Check reports the first field of s no ledger can produce, named as on the
// wire: a negative count, or milliseconds outside [0, MaxInt64/1e6), which
// would wrap the nanosecond counter Merge adds them to.
func (s *LedgerSnapshot) Check() error {
	if s == nil {
		return nil
	}
	maxMs, count := math.MaxInt64/1e6, math.Inf(1)
	type field struct {
		name   string
		v, max float64
	}
	fields := []field{{"cpu_ms", s.CPUMs, maxMs}, {"kernel_ms", s.KernelMs, maxMs},
		{"queue_wait_ms", s.QueueWaitMs, maxMs}, {"registry_io_ms", s.RegistryIOMs, maxMs},
		{"kernel_calls", float64(s.KernelCalls), count}, {"flops", float64(s.Flops), count},
		{"steals", float64(s.Steals), count}, {"rows_materialized", float64(s.RowsMaterialized), count},
		{"bytes_materialized", float64(s.BytesMaterialized), count},
		{"bundle_cache_hits", float64(s.BundleHits), count}, {"bundle_cache_misses", float64(s.BundleMisses), count}}
	for i, st := range s.Stages {
		p := fmt.Sprintf("stages[%d].", i)
		fields = append(fields, field{p + "cpu_ms", st.CPUMs, maxMs},
			field{p + "kernel_calls", float64(st.KernelCalls), count},
			field{p + "rows_materialized", float64(st.RowsMaterialized), count})
	}
	for _, f := range fields {
		if !(f.v >= 0 && f.v < f.max) {
			return fmt.Errorf("ledger %s = %v is outside [0, %v)", f.name, f.v, f.max)
		}
	}
	return nil
}

// Merge folds a snapshot (e.g. shipped back from a cluster worker) into the
// ledger, so a remote task's costs rejoin the coordinator-side job record.
// Each stage's slice goes to the accumulator of that name, never through
// the current stage, which concurrent merges and spans share. Merge trusts
// s: Check one that crossed a process boundary first.
func (l *Ledger) Merge(s *LedgerSnapshot) {
	if l == nil || s == nil {
		return
	}
	l.cpuNs.Add(int64(s.CPUMs * 1e6))
	l.kernelNs.Add(int64(s.KernelMs * 1e6))
	l.kernelCalls.Add(s.KernelCalls)
	l.flops.Add(s.Flops)
	l.steals.Add(s.Steals)
	l.rows.Add(s.RowsMaterialized)
	l.bytes.Add(s.BytesMaterialized)
	l.bundleHits.Add(s.BundleHits)
	l.bundleMisses.Add(s.BundleMisses)
	l.queueWaitNs.Add(int64(s.QueueWaitMs * 1e6))
	l.registryNs.Add(int64(s.RegistryIOMs * 1e6))
	for _, st := range s.Stages {
		sc := l.stageFor(&st.Stage)
		sc.cpuNs.Add(int64(st.CPUMs * 1e6))
		sc.kernelCalls.Add(st.KernelCalls)
		sc.rows.Add(st.RowsMaterialized)
	}
}

// ---------------------------------------------------------------------------
// Goroutine-bound ledgers.
//
// The compute pool and the row store have deliberately context-free
// signatures (they are called millions of times from code that predates
// tracing). To let them charge the owning job's ledger, the job's
// worker goroutine — and every pool helper it spawns — is *bound* to the
// ledger by goroutine ID. The registry keeps an atomic count of live
// bindings so BoundLedger is a single atomic load (and nil) on every path
// that never bound anything: CLI tools, benchmarks, predict serving.

type ledgerBinding struct {
	l *Ledger
	// depth counts open pool frames on the bound goroutine. Only the owning
	// goroutine mutates it (EnterPool/Exit run on that goroutine), so no
	// synchronization is needed beyond the registry lock that publishes the
	// binding itself.
	depth int
}

var ledgerReg struct {
	count atomic.Int64
	mu    sync.RWMutex
	m     map[uint64]*ledgerBinding
}

// goID parses the current goroutine's ID from the runtime.Stack header
// ("goroutine 123 [running]: ..."). ~100ns — paid only on bind and on
// charge paths that actually have a bound ledger.
func goID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[len("goroutine "):n]
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

// BindLedger binds l to the calling goroutine until the returned release
// func runs. Bindings nest: release restores the previous binding.
func BindLedger(l *Ledger) (release func()) {
	if l == nil {
		return func() {}
	}
	id := goID()
	b := &ledgerBinding{l: l}
	ledgerReg.mu.Lock()
	if ledgerReg.m == nil {
		ledgerReg.m = make(map[uint64]*ledgerBinding, 16)
	}
	prev := ledgerReg.m[id]
	ledgerReg.m[id] = b
	ledgerReg.mu.Unlock()
	ledgerReg.count.Add(1)
	return func() {
		ledgerReg.mu.Lock()
		if prev != nil {
			ledgerReg.m[id] = prev
		} else {
			delete(ledgerReg.m, id)
		}
		ledgerReg.mu.Unlock()
		ledgerReg.count.Add(-1)
	}
}

// BoundLedger returns the ledger bound to the calling goroutine, or nil.
// The no-bindings fast path is one atomic load.
func BoundLedger() *Ledger {
	if b := boundBinding(); b != nil {
		return b.l
	}
	return nil
}

func boundBinding() *ledgerBinding {
	if ledgerReg.count.Load() == 0 {
		return nil
	}
	id := goID()
	ledgerReg.mu.RLock()
	b := ledgerReg.m[id]
	ledgerReg.mu.RUnlock()
	return b
}

// PoolFrame is one compute-pool participation interval on the calling
// goroutine. The pool opens a frame around the work it executes; only the
// outermost frame charges busy time, so nested pool calls (a parallel
// kernel inside a parallel probe) never double-charge.
type PoolFrame struct {
	b     *ledgerBinding
	outer bool
	start time.Time
}

// EnterPool opens a pool frame. Free (one atomic load) when the goroutine
// has no bound ledger.
func EnterPool() PoolFrame {
	b := boundBinding()
	if b == nil {
		return PoolFrame{}
	}
	b.depth++
	f := PoolFrame{b: b, outer: b.depth == 1}
	if f.outer {
		f.start = time.Now()
	}
	return f
}

// Exit closes the frame, charging the goroutine's busy wall time (outermost
// frame only) and any tasks it executed as a helper (steals).
func (f PoolFrame) Exit(steals int64) {
	if f.b == nil {
		return
	}
	f.b.depth--
	if steals > 0 {
		f.b.l.ChargeSteals(steals)
	}
	if f.outer {
		f.b.l.ChargeCPU(time.Since(f.start))
	}
}
