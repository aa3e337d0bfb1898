package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blinkml/internal/obs"
)

// waitState polls until the job reaches a terminal state or the deadline
// passes, returning the final snapshot.
func waitState(t *testing.T, q *Queue, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, err := q.Get(id)
		if err != nil {
			t.Fatalf("get job %s: %v", id, err)
		}
		st := job.Status()
		if st.Done() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fnTask adapts a closure to the Task interface for queue tests.
type fnTask func(ctx context.Context) (TaskResult, error)

func (fnTask) Kind() string                                  { return "train" }
func (t fnTask) Run(ctx context.Context) (TaskResult, error) { return t(ctx) }

func TestQueueRunsJobs(t *testing.T) {
	run := fnTask(func(ctx context.Context) (TaskResult, error) {
		return TaskResult{ModelID: "m-000001", Diagnostics: &PhaseBreakdown{TotalMs: 1}}, nil
	})
	q := NewQueue(2, 8, nil)
	defer q.Close()
	job, err := q.Enqueue(run)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	st := waitState(t, q, job.ID, 5*time.Second)
	if st.State != JobSucceeded || st.ModelID != "m-000001" {
		t.Fatalf("got %+v, want succeeded with model id", st)
	}
	if st.Diagnostics == nil || st.Diagnostics.TotalMs != 1 {
		t.Fatalf("diagnostics not propagated: %+v", st.Diagnostics)
	}
	if st.FinishedAt.Before(st.StartedAt) || st.StartedAt.Before(st.EnqueuedAt) {
		t.Fatalf("timestamps out of order: %+v", st)
	}
}

func TestQueueFailurePropagates(t *testing.T) {
	boom := errors.New("synthetic failure")
	run := fnTask(func(ctx context.Context) (TaskResult, error) {
		return TaskResult{}, boom
	})
	q := NewQueue(1, 4, nil)
	defer q.Close()
	job, _ := q.Enqueue(run)
	st := waitState(t, q, job.ID, 5*time.Second)
	if st.State != JobFailed || st.Error != boom.Error() {
		t.Fatalf("got %+v, want failed with error message", st)
	}
}

// TestQueuePanicFailsTheJobNotTheQueue: a task that panics ends failed (not
// cancelled) with the one-line panic as its error and the stack in its flight
// entry, and a healthy job queued behind it on the same single worker still
// runs. The panic used to kill the process (this test binary).
func TestQueuePanicFailsTheJobNotTheQueue(t *testing.T) {
	fr, err := obs.NewFlightRecorder(obs.FlightConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(1, 4, nil)
	defer q.Close()
	q.Flight = fr
	poisoned, _ := q.Enqueue(fnTask(func(ctx context.Context) (TaskResult, error) {
		var theta []float64
		return TaskResult{}, errors.New(fmt.Sprint(theta[7]))
	}))
	healthy, _ := q.Enqueue(fnTask(func(ctx context.Context) (TaskResult, error) {
		return TaskResult{ModelID: "m-000001"}, nil
	}))
	st := waitState(t, q, poisoned.ID, 5*time.Second)
	if st.State != JobFailed || !strings.HasPrefix(st.Error, "panic: ") || !strings.Contains(st.Error, "index out of range") || strings.Contains(st.Error, "\n") {
		t.Fatalf("poisoned job: %s %q, want failed with a one-line panic error", st.State, st.Error)
	}
	if st := waitState(t, q, healthy.ID, 5*time.Second); st.State != JobSucceeded || st.ModelID != "m-000001" {
		t.Fatalf("job behind the panic: %+v, want succeeded", st)
	}
	// The one worker recorded the poisoned job before it started the next;
	// entries come newest first.
	entries := fr.Entries()
	if len(entries) == 0 {
		t.Fatal("no flight entries")
	}
	if e := entries[len(entries)-1]; e.JobID != poisoned.ID ||
		!strings.HasPrefix(e.Err, st.Error+"\n") || !strings.Contains(e.Err, "TestQueuePanicFailsTheJobNotTheQueue") {
		t.Fatalf("flight entry %+v, want the poisoned job's, carrying the stack", e)
	}
}

// TestQueueCancelRunning injects a run function that blocks until its
// context is cancelled — a deterministic stand-in for a long training loop.
func TestQueueCancelRunning(t *testing.T) {
	started := make(chan struct{})
	run := fnTask(func(ctx context.Context) (TaskResult, error) {
		close(started)
		<-ctx.Done() // "training" stops only when the job context says so
		return TaskResult{}, ctx.Err()
	})
	q := NewQueue(1, 4, nil)
	defer q.Close()
	job, _ := q.Enqueue(run)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	if _, err := q.Cancel(job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st := waitState(t, q, job.ID, 5*time.Second)
	if st.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
}

// TestQueueCancelQueued cancels a job that is still waiting behind a
// blocked worker: it must be marked cancelled without ever running.
func TestQueueCancelQueued(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan string, 8)
	run := fnTask(func(ctx context.Context) (TaskResult, error) {
		<-release
		ran <- "ran"
		return TaskResult{ModelID: "m-000001"}, nil
	})
	q := NewQueue(1, 4, nil)
	defer q.Close()
	blocker, _ := q.Enqueue(run)
	waiting, err := q.Enqueue(run)
	if err != nil {
		t.Fatalf("enqueue waiting job: %v", err)
	}
	if _, err := q.Cancel(waiting.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st := waiting.Status(); st.State != JobCancelled || st.StartedAt != (time.Time{}) {
		t.Fatalf("queued job %+v, want cancelled and never started", st)
	}
	close(release)
	if st := waitState(t, q, blocker.ID, 5*time.Second); st.State != JobSucceeded {
		t.Fatalf("blocker %+v, want succeeded", st)
	}
	// Only the blocker may have run.
	if n := len(ran); n != 1 {
		t.Fatalf("%d jobs ran, want 1", n)
	}
}

func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	run := fnTask(func(ctx context.Context) (TaskResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return TaskResult{}, ctx.Err()
	})
	q := NewQueue(1, 1, nil)
	defer q.Close()
	defer close(release)
	// One running + one queued fit; give the worker a moment to pick up the
	// first so the single buffer slot frees.
	first, _ := q.Enqueue(run)
	deadline := time.Now().Add(5 * time.Second)
	for first.Status().State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Enqueue(run); err != nil {
		t.Fatalf("second enqueue should fit in the buffer: %v", err)
	}
	if _, err := q.Enqueue(run); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue err = %v, want ErrQueueFull", err)
	}
}

func TestQueueClosedRejects(t *testing.T) {
	q := NewQueue(1, 1, nil)
	q.Close()
	noop := fnTask(func(ctx context.Context) (TaskResult, error) { return TaskResult{}, nil })
	if _, err := q.Enqueue(noop); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("err = %v, want ErrQueueClosed", err)
	}
}
