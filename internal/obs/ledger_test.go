package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLedgerChargesAndSnapshot(t *testing.T) {
	l := NewLedger()
	l.ChargeCPU(3 * time.Millisecond)
	l.ChargeKernels("statistics", 1, 2*time.Millisecond, 1000)
	l.ChargeKernels("statistics", 1, time.Millisecond, 500)
	l.ChargeMaterialize(10, 640)
	l.ChargeBundle(true)
	l.ChargeBundle(false)
	l.ChargeBundle(false)
	l.ChargeSteals(4)
	l.ChargeQueueWait(5 * time.Millisecond)
	l.ChargeRegistryIO(time.Millisecond)

	s := l.Snapshot()
	if s.CPUMs != 3 || s.KernelMs != 3 || s.KernelCalls != 2 || s.Flops != 1500 {
		t.Fatalf("cpu/kernel fields: %+v", s)
	}
	if s.RowsMaterialized != 10 || s.BytesMaterialized != 640 {
		t.Fatalf("materialize fields: %+v", s)
	}
	if s.BundleHits != 1 || s.BundleMisses != 2 || s.Steals != 4 {
		t.Fatalf("bundle/steal fields: %+v", s)
	}
	if s.QueueWaitMs != 5 || s.RegistryIOMs != 1 {
		t.Fatalf("wait fields: %+v", s)
	}
}

func TestLedgerStageAttribution(t *testing.T) {
	l := NewLedger()
	restore := l.SetStage("statistics")
	l.ChargeMaterialize(5, 320)
	inner := l.SetStage("search")
	l.ChargeMaterialize(1, 64)
	// Kernel charges name their stage; the current one does not matter.
	l.ChargeKernels("statistics", 2, time.Millisecond, 100)
	inner() // back to "statistics"
	l.ChargeMaterialize(2, 128)
	restore()
	// No stage set: store charges land only in the totals.
	l.ChargeMaterialize(4, 256)

	s := l.Snapshot()
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %+v, want 2", s.Stages)
	}
	// Sorted by name: search, statistics.
	if s.Stages[0].Stage != "search" || s.Stages[0].KernelCalls != 0 || s.Stages[0].RowsMaterialized != 1 {
		t.Fatalf("search stage: %+v", s.Stages[0])
	}
	st := s.Stages[1]
	if st.Stage != "statistics" || st.KernelCalls != 2 || st.RowsMaterialized != 7 {
		t.Fatalf("statistics stage: %+v", st)
	}
	if s.KernelCalls != 2 || s.Flops != 100 || s.RowsMaterialized != 12 {
		t.Fatalf("totals: %+v", s)
	}
}

func TestLedgerMerge(t *testing.T) {
	remote := NewLedger()
	remote.SetStage("final")
	remote.ChargeKernels("final", 1, 2*time.Millisecond, 700)
	remote.ChargeMaterialize(3, 192)
	remote.ChargeBundle(false)

	local := NewLedger()
	local.ChargeKernels("final", 1, time.Millisecond, 300)
	local.Merge(remote.Snapshot())

	s := local.Snapshot()
	if s.KernelCalls != 2 || s.Flops != 1000 {
		t.Fatalf("merged kernels: %+v", s)
	}
	if s.RowsMaterialized != 3 || s.BytesMaterialized != 192 || s.BundleMisses != 1 {
		t.Fatalf("merged materialize/bundle: %+v", s)
	}
	if len(s.Stages) != 1 || s.Stages[0].Stage != "final" || s.Stages[0].KernelCalls != 2 {
		t.Fatalf("merged stages: %+v", s.Stages)
	}

	// Check passes any snapshot a ledger produced and names the first field
	// no ledger can produce.
	if err := remote.Snapshot().Check(); err != nil {
		t.Fatalf("Check(real snapshot) = %v", err)
	}
	for field, bad := range map[string]*LedgerSnapshot{
		"cpu_ms":                      {CPUMs: 1e300},
		"kernel_ms":                   {KernelMs: -1},
		"queue_wait_ms":               {QueueWaitMs: math.NaN()},
		"registry_io_ms":              {RegistryIOMs: math.MaxInt64 / 1e6},
		"rows_materialized":           {RowsMaterialized: -1000},
		"bundle_cache_misses":         {BundleMisses: -1},
		"stages[1].cpu_ms":            {Stages: []StageCost{{Stage: "a"}, {Stage: "b", CPUMs: -1}}},
		"stages[0].kernel_calls":      {Stages: []StageCost{{Stage: "a", KernelCalls: -1}}},
		"stages[0].rows_materialized": {Stages: []StageCost{{Stage: "a", RowsMaterialized: -1}}},
	} {
		if err := bad.Check(); err == nil || !strings.Contains(err.Error(), "ledger "+field+" ") {
			t.Errorf("Check(bad %s) = %v, want an error naming it", field, err)
		}
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.ChargeCPU(time.Millisecond)
	l.ChargeKernels("statistics", 1, time.Millisecond, 1)
	l.ChargeMaterialize(1, 1)
	l.ChargeBundle(true)
	l.ChargeSteals(1)
	l.ChargeQueueWait(time.Millisecond)
	l.ChargeRegistryIO(time.Millisecond)
	l.Merge(&LedgerSnapshot{KernelCalls: 1})
	if l.Snapshot() != nil {
		t.Fatal("nil ledger snapshot should be nil")
	}
	if got := LedgerFrom(context.Background()); got != nil {
		t.Fatalf("LedgerFrom(empty) = %v", got)
	}
	if got := WithLedger(context.Background(), nil); got != context.Background() {
		t.Fatal("WithLedger(nil) should return ctx unchanged")
	}
}

// TestLedgerContextRoundTrip: a context built the benchmark harness's way
// (WithTrace → WithRecorder → WithLedger, then BindLedger) and one built by
// Begin (then Scope.Bind) read back the same trace, recorder and ledger; a
// phase's kernel charge through the context and the bound goroutine's pool
// and store charges land in that ledger, under the stage of the open span.
func TestLedgerContextRoundTrip(t *testing.T) {
	l, r := NewLedger(), NewRecorder("t1")
	harness := WithLedger(WithRecorder(WithTrace(context.Background(), "t1"), r), l)
	begun, sc := Begin(context.Background(), "t1", "j-1", nil)
	for _, c := range []struct {
		name string
		ctx  context.Context
		rec  *Recorder
		led  *Ledger
		bind func() func()
	}{
		{"harness", harness, r, l, func() func() { return BindLedger(l) }},
		{"begin", begun, sc.Recorder, sc.Ledger, sc.Bind},
	} {
		if TraceID(c.ctx) != "t1" || ScopeFrom(c.ctx).Recorder != c.rec || LedgerFrom(c.ctx) != c.led || c.led == nil {
			t.Fatalf("%s: context round trip lost the trace, recorder or ledger", c.name)
		}
		release := c.bind()
		done := StartSpan(c.ctx, "statistics")
		LedgerFrom(c.ctx).ChargeKernels("statistics", 1, time.Millisecond, 100)
		BoundLedger().ChargeMaterialize(3, 192)
		frame := EnterPool()
		frame.Exit(2)
		done()
		release()
		s := c.led.Snapshot()
		if s.KernelCalls != 1 || s.Flops != 100 || s.Steals != 2 || s.RowsMaterialized != 3 {
			t.Fatalf("%s: charges missed the ledger: %+v", c.name, s)
		}
		if len(s.Stages) != 1 || s.Stages[0].Stage != "statistics" || s.Stages[0].KernelCalls != 1 ||
			s.Stages[0].RowsMaterialized != 3 {
			t.Fatalf("%s: stage attribution: %+v", c.name, s.Stages)
		}
		if spans := c.rec.Spans(); len(spans) != 1 || spans[0].Trace != "t1" {
			t.Fatalf("%s: spans = %+v", c.name, spans)
		}
	}
	if a, b := ScopeFrom(begun).JobID, ScopeFrom(harness).JobID; a != "j-1" || b != "" {
		t.Fatalf("job ids = %q, %q; want j-1 and none", a, b)
	}
}

// TestLedgerMergeConcurrentStages: merges racing each other charge every
// stage slice to the stage it names, never to a concurrently merged one.
func TestLedgerMergeConcurrentStages(t *testing.T) {
	l := NewLedger()
	const goroutines, merges = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(stage string) {
			defer wg.Done()
			for i := 0; i < merges; i++ {
				l.Merge(&LedgerSnapshot{Stages: []StageCost{{Stage: stage, KernelCalls: 1}}})
			}
		}(fmt.Sprintf("s%d", g))
	}
	wg.Wait()
	s := l.Snapshot()
	if len(s.Stages) != goroutines {
		t.Fatalf("stages = %+v, want %d", s.Stages, goroutines)
	}
	for _, st := range s.Stages {
		if st.KernelCalls != merges {
			t.Errorf("stage %s kernel_calls = %d, want %d", st.Stage, st.KernelCalls, merges)
		}
	}
}

func TestBindLedgerNesting(t *testing.T) {
	if BoundLedger() != nil {
		t.Fatal("unexpected bound ledger at test start")
	}
	outer, inner := NewLedger(), NewLedger()
	release1 := BindLedger(outer)
	if BoundLedger() != outer {
		t.Fatal("outer binding not visible")
	}
	release2 := BindLedger(inner)
	if BoundLedger() != inner {
		t.Fatal("inner binding not visible")
	}
	release2()
	if BoundLedger() != outer {
		t.Fatal("release did not restore the outer binding")
	}
	release1()
	if BoundLedger() != nil {
		t.Fatal("bindings leaked")
	}
}

func TestBindLedgerPerGoroutine(t *testing.T) {
	l := NewLedger()
	release := BindLedger(l)
	defer release()
	// A plain `go` goroutine does not inherit the binding; it must bind
	// explicitly (Scope.Bind is the usual route).
	var wg sync.WaitGroup
	wg.Add(1)
	var spawned *Ledger
	go func() {
		defer wg.Done()
		spawned = BoundLedger()
	}()
	wg.Wait()
	if spawned != nil {
		t.Fatalf("spawned goroutine saw binding %v, want nil", spawned)
	}
}

// TestPoolFrameOutermostOnly: nested frames (a parallel kernel inside a
// parallel probe) charge busy time once, from the outermost frame only;
// steals are charged from any depth.
func TestPoolFrameOutermostOnly(t *testing.T) {
	l := NewLedger()
	release := BindLedger(l)
	defer release()

	outer := EnterPool()
	time.Sleep(2 * time.Millisecond)
	inner := EnterPool()
	time.Sleep(2 * time.Millisecond)
	inner.Exit(3)
	if got := l.Snapshot(); got.CPUMs != 0 {
		t.Fatalf("inner frame charged %v CPU ms, want 0", got.CPUMs)
	}
	outer.Exit(0)

	s := l.Snapshot()
	if s.CPUMs < 3 {
		t.Fatalf("outer frame charged %v CPU ms, want >= ~4", s.CPUMs)
	}
	if s.Steals != 3 {
		t.Fatalf("steals = %d, want 3", s.Steals)
	}
}

func TestPoolFrameNoBinding(t *testing.T) {
	f := EnterPool()
	f.Exit(5) // must be a no-op, not a panic
}

// TestLedgerConcurrentCharges exercises the atomic counters and the stage
// map under the race detector.
func TestLedgerConcurrentCharges(t *testing.T) {
	l := NewLedger()
	restore := l.SetStage("stats")
	defer restore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.ChargeKernels("stats", 1, time.Microsecond, 10)
				l.ChargeMaterialize(1, 64)
			}
		}()
	}
	wg.Wait()
	s := l.Snapshot()
	if s.KernelCalls != 1600 || s.Flops != 16000 || s.RowsMaterialized != 1600 {
		t.Fatalf("concurrent totals: %+v", s)
	}
}
