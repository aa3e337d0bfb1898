package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
)

// testConfig keeps heartbeats fast but the liveness timeout generous:
// tests that need a worker declared dead call reapDead with a future
// timestamp instead of waiting, so a slow CI machine (or the race
// detector's overhead) can never falsely reap a healthy worker mid-test.
func testConfig() Config {
	return Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		SweepInterval:     10 * time.Millisecond,
		MaxAttempts:       3,
	}
}

// trialSpec is a minimal valid task payload for queue-level tests (no
// worker ever executes it here).
func trialSpec() TaskSpec {
	return TaskSpec{Kind: KindTrial, Trial: &TrialTask{
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 100, Dim: 4}},
		Options: core.Options{Epsilon: 0.1},
	}}
}

// registerWorker is a helper returning the new worker's id.
func registerWorker(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.Register(RegisterRequest{Name: name, Capacity: 1})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp.WorkerID
}

// mustLease leases one task within the wait window.
func mustLease(t *testing.T, c *Coordinator, worker string) *LeaseResponse {
	t.Helper()
	lease, err := c.Lease(context.Background(), worker, time.Second)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if lease == nil {
		t.Fatalf("lease for %s timed out with tasks pending", worker)
	}
	return lease
}

func TestLeaseCompleteRoundTrip(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, err := c.Submit(trialSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	w := registerWorker(t, c, "w1")
	lease := mustLease(t, c, w)
	if lease.TaskID != id {
		t.Fatalf("leased %s, want %s", lease.TaskID, id)
	}
	score := 0.25
	if err := c.Complete(CompleteRequest{WorkerID: w, TaskID: id,
		Result: &TaskResultPayload{Theta: []float64{1, 2}, Score: &score, SampleSize: 10}}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	res, err := c.Await(context.Background(), id)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if len(res.Theta) != 2 || *res.Score != 0.25 {
		t.Fatalf("result round-trip mangled: %+v", res)
	}
}

// TestCancelMidLease covers cancellation of a task a worker is executing:
// the cancel flag reaches the worker via heartbeat, the worker acknowledges
// with a cancelled completion, and the awaiter sees context.Canceled.
func TestCancelMidLease(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	w := registerWorker(t, c, "w1")
	mustLease(t, c, w)

	c.CancelTask(id)
	hb, err := c.Heartbeat(HeartbeatRequest{WorkerID: w, Running: []string{id}})
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if len(hb.Cancel) != 1 || hb.Cancel[0] != id {
		t.Fatalf("heartbeat cancellations = %v, want [%s]", hb.Cancel, id)
	}
	if err := c.Complete(CompleteRequest{WorkerID: w, TaskID: id, Cancelled: true}); err != nil {
		t.Fatalf("complete cancelled: %v", err)
	}
	_, err = c.Await(context.Background(), id)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("await after cancel = %v, want context.Canceled", err)
	}
}

// TestCancelPendingIsImmediate: a never-leased task goes terminal without a
// worker involved.
func TestCancelPendingIsImmediate(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	c.CancelTask(id)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Await(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("await = %v, want context.Canceled", err)
	}
	if st := c.Status(); st.TasksPending != 0 || st.TasksLeased != 0 {
		t.Fatalf("cancelled task still counted: %+v", st)
	}
}

// TestWorkerLossRequeues is the worker-death path: the leaseholder goes
// silent, the sweeper reaps it, and the task returns to the queue for a
// replacement worker — deterministically in task-id order.
func TestWorkerLossRequeues(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	idA, _ := c.Submit(trialSpec())
	idB, _ := c.Submit(trialSpec())

	dead := registerWorker(t, c, "doomed")
	l1 := mustLease(t, c, dead)
	l2 := mustLease(t, c, dead)
	if l1.TaskID != idA || l2.TaskID != idB {
		t.Fatalf("fifo violated: leased %s, %s", l1.TaskID, l2.TaskID)
	}

	// Reap directly with a time beyond the deadline: deterministic, no
	// sleeping.
	c.reapDead(time.Now().Add(time.Minute))

	replacement := registerWorker(t, c, "replacement")
	r1 := mustLease(t, c, replacement)
	r2 := mustLease(t, c, replacement)
	// Requeue order must be deterministic: task-id order.
	if r1.TaskID != idA || r2.TaskID != idB {
		t.Fatalf("requeue order %s, %s; want %s, %s", r1.TaskID, r2.TaskID, idA, idB)
	}

	// The dead worker's late completion must be fenced off…
	err := c.Complete(CompleteRequest{WorkerID: dead, TaskID: idA,
		Result: &TaskResultPayload{Theta: []float64{9}}})
	if !errors.Is(err, ErrStaleLease) && !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("stale completion error = %v, want ErrStaleLease", err)
	}
	// …and the replacement's must stand.
	if err := c.Complete(CompleteRequest{WorkerID: replacement, TaskID: idA,
		Result: &TaskResultPayload{Theta: []float64{1}}}); err != nil {
		t.Fatalf("replacement complete: %v", err)
	}
	res, err := c.Await(context.Background(), idA)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if len(res.Theta) != 1 || res.Theta[0] != 1 {
		t.Fatalf("fencing failed: got result %+v from the dead worker", res)
	}
}

// TestAttemptCapExhaustion: losing the worker MaxAttempts times fails the
// task with a structured TaskError recording every attempt.
func TestAttemptCapExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	c := NewCoordinator(cfg, nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())

	for i := 0; i < 2; i++ {
		w := registerWorker(t, c, "doomed")
		mustLease(t, c, w)
		c.reapDead(time.Now().Add(time.Minute))
	}

	_, err := c.Await(context.Background(), id)
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("await = %v, want *TaskError", err)
	}
	if te.TaskID != id || te.Attempts != 2 {
		t.Fatalf("TaskError = %+v, want task %s with 2 attempts", te, id)
	}
	if len(te.Log) != 2 {
		t.Fatalf("attempt log has %d entries, want 2: %v", len(te.Log), te.Log)
	}
}

// TestWorkerErrorFailsImmediately: an error reported by a worker is
// deterministic and must not be retried.
func TestWorkerErrorFailsImmediately(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	w := registerWorker(t, c, "w1")
	mustLease(t, c, w)
	if err := c.Complete(CompleteRequest{WorkerID: w, TaskID: id, Error: "training diverged"}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	_, err := c.Await(context.Background(), id)
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("await = %v, want *TaskError", err)
	}
	if te.Attempts != 1 || te.Reason != "training diverged" {
		t.Fatalf("TaskError = %+v", te)
	}
}

// TestRequeueFlagHandsBack: a worker giving a task back (graceful shutdown)
// requeues rather than fails.
func TestRequeueFlagHandsBack(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	w1 := registerWorker(t, c, "leaving")
	mustLease(t, c, w1)
	if err := c.Complete(CompleteRequest{WorkerID: w1, TaskID: id, Requeue: true, Error: "worker shutting down"}); err != nil {
		t.Fatalf("requeue complete: %v", err)
	}
	w2 := registerWorker(t, c, "staying")
	lease := mustLease(t, c, w2)
	if lease.TaskID != id {
		t.Fatalf("requeued lease = %s, want %s", lease.TaskID, id)
	}
	if err := c.Complete(CompleteRequest{WorkerID: w2, TaskID: id,
		Result: &TaskResultPayload{Theta: []float64{1}}}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if _, err := c.Await(context.Background(), id); err != nil {
		t.Fatalf("await: %v", err)
	}
}

// TestAwaitCancelPropagates: a cancelled await marks the task for
// cancellation so the leaseholder is told to stop.
func TestAwaitCancelPropagates(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	w := registerWorker(t, c, "w1")
	mustLease(t, c, w)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Await(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("await = %v, want context.Canceled", err)
	}
	hb, err := c.Heartbeat(HeartbeatRequest{WorkerID: w})
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if len(hb.Cancel) != 1 || hb.Cancel[0] != id {
		t.Fatalf("cancellation did not reach the leaseholder: %v", hb.Cancel)
	}
}

// TestCancelledTaskNotRequeuedOnWorkerLoss: when the leaseholder of a
// cancelled task dies, the task goes terminal cancelled, never back to the
// queue.
func TestCancelledTaskNotRequeuedOnWorkerLoss(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	id, _ := c.Submit(trialSpec())
	w := registerWorker(t, c, "w1")
	mustLease(t, c, w)
	c.CancelTask(id)
	c.reapDead(time.Now().Add(time.Minute))
	if _, err := c.Await(context.Background(), id); !errors.Is(err, context.Canceled) {
		t.Fatalf("await = %v, want context.Canceled", err)
	}
	if st := c.Status(); st.TasksPending != 0 {
		t.Fatalf("cancelled task requeued: %+v", st)
	}
}

// TestLeaseLongPollWakes: a lease blocked on an empty queue wakes as soon
// as work arrives.
func TestLeaseLongPollWakes(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	w := registerWorker(t, c, "w1")
	done := make(chan *LeaseResponse, 1)
	go func() {
		lease, _ := c.Lease(context.Background(), w, 5*time.Second)
		done <- lease
	}()
	time.Sleep(20 * time.Millisecond)
	id, _ := c.Submit(trialSpec())
	select {
	case lease := <-done:
		if lease == nil || lease.TaskID != id {
			t.Fatalf("long poll returned %+v, want task %s", lease, id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long poll never woke")
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	bad := []TaskSpec{
		{Kind: KindTrain},
		{Kind: KindTrial},
		{Kind: "mystery"},
		{Kind: KindTrial, Trial: &TrialTask{}}, // no dataset
		{Kind: KindTrial, Trial: &TrialTask{Dataset: DatasetRef{ID: "d-1", Synthetic: &datagen.Ref{Name: "higgs"}}}}, // two datasets
	}
	for i, spec := range bad {
		if _, err := c.Submit(spec); err == nil {
			t.Fatalf("case %d: submit accepted %+v", i, spec)
		}
	}
}

// TestClosedCoordinator: submits are refused and in-flight awaits fail.
func TestClosedCoordinator(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	id, _ := c.Submit(trialSpec())
	c.Close()
	if _, err := c.Submit(trialSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if _, err := c.Await(context.Background(), id); !errors.Is(err, ErrClosed) {
		t.Fatalf("await after close = %v, want ErrClosed", err)
	}
	if _, err := c.Register(RegisterRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close = %v, want ErrClosed", err)
	}
}

// TestConfigKeepsIntervalBelowTimeout: an operator-set timeout below the
// default heartbeat interval must pull the interval down — never leave a
// config where workers are told to heartbeat slower than they are reaped.
func TestConfigKeepsIntervalBelowTimeout(t *testing.T) {
	c := Config{HeartbeatTimeout: time.Second}.withDefaults()
	if c.HeartbeatInterval > c.HeartbeatTimeout/3 {
		t.Fatalf("interval %v exceeds timeout/3 (%v)", c.HeartbeatInterval, c.HeartbeatTimeout/3)
	}
	d := Config{}.withDefaults()
	if d.HeartbeatInterval != 2*time.Second || d.HeartbeatTimeout != 6*time.Second {
		t.Fatalf("defaults changed: interval %v timeout %v", d.HeartbeatInterval, d.HeartbeatTimeout)
	}
}

// TestStatusScoreboard: completions and failures feed the per-worker fleet
// scoreboard — counts, error rate, and lease-to-complete p95.
func TestStatusScoreboard(t *testing.T) {
	c := NewCoordinator(testConfig(), nil)
	defer c.Close()
	w := registerWorker(t, c, "w1")
	for i := 0; i < 3; i++ {
		id, _ := c.Submit(trialSpec())
		mustLease(t, c, w)
		req := CompleteRequest{WorkerID: w, TaskID: id, Result: &TaskResultPayload{Theta: []float64{1}}}
		if i == 2 {
			req = CompleteRequest{WorkerID: w, TaskID: id, Error: "diverged"}
		}
		if err := c.Complete(req); err != nil {
			t.Fatalf("complete %s: %v", id, err)
		}
	}
	st := c.Status()
	if len(st.Workers) != 1 {
		t.Fatalf("workers = %d, want 1", len(st.Workers))
	}
	ws := st.Workers[0]
	if ws.TasksCompleted != 2 || ws.TasksFailed != 1 {
		t.Fatalf("scoreboard counts %d/%d, want 2/1", ws.TasksCompleted, ws.TasksFailed)
	}
	if ws.ErrorRate < 0.3 || ws.ErrorRate > 0.4 {
		t.Fatalf("error rate %v, want 1/3", ws.ErrorRate)
	}
	if ws.P95LeaseToCompleteMs < 0 {
		t.Fatalf("p95 lease-to-complete %v", ws.P95LeaseToCompleteMs)
	}
}
