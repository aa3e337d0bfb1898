package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/obs"
	"blinkml/internal/store"
)

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func ingestCSVOptions() store.IngestOptions {
	return store.IngestOptions{Format: "csv", Task: dataset.BinaryClassification, Name: "test"}
}

// TestJobListAndFilter drives GET /v1/jobs: all jobs in id order, and the
// ?state= filter.
func TestJobListAndFilter(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Close()
		ts.Close()
	}()

	good := TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 1500, Dim: 6, Seed: 2}},
		Epsilon: 0.1,
		Options: TrainOptions{Seed: 2, InitialSampleSize: 300},
	}
	bad := good
	bad.Model = modelSpec("logistic")
	bad.Dataset = DatasetRef{Synthetic: &datagen.Ref{Name: "counts", Rows: 500, Dim: 4, Seed: 1}} // regression labels: training fails

	var a1, a2 TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", good, &a1); code != http.StatusAccepted {
		t.Fatalf("submit 1 status %d", code)
	}
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", bad, &a2); code != http.StatusAccepted {
		t.Fatalf("submit 2 status %d", code)
	}
	waitJob(t, ts.Client(), ts.URL, a1.JobID, 60*time.Second)
	waitJob(t, ts.Client(), ts.URL, a2.JobID, 60*time.Second)

	var all JobList
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs", nil, &all); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(all.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(all.Jobs))
	}
	if all.Jobs[0].ID != a1.JobID || all.Jobs[1].ID != a2.JobID {
		t.Fatalf("list order %s, %s; want %s, %s", all.Jobs[0].ID, all.Jobs[1].ID, a1.JobID, a2.JobID)
	}

	var failed JobList
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs?state=failed", nil, &failed); code != http.StatusOK {
		t.Fatalf("filtered list status %d", code)
	}
	if len(failed.Jobs) != 1 || failed.Jobs[0].ID != a2.JobID {
		t.Fatalf("state=failed returned %+v, want just %s", failed.Jobs, a2.JobID)
	}
	var succeeded JobList
	doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs?state=succeeded", nil, &succeeded)
	if len(succeeded.Jobs) != 1 || succeeded.Jobs[0].ID != a1.JobID {
		t.Fatalf("state=succeeded returned %+v, want just %s", succeeded.Jobs, a1.JobID)
	}

	// Unknown filter values are rejected, not silently empty.
	var er ErrorResponse
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs?state=done", nil, &er); code != http.StatusBadRequest {
		t.Fatalf("bad filter status %d, want 400", code)
	}
}

// uploadDataset ingests a small CSV into the server's store and returns its
// id.
func uploadDataset(t *testing.T, s *Server) string {
	t.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: 2000, Dim: 6, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var sb strings.Builder
	for i := 0; i < ds.Len(); i++ {
		row := make([]float64, ds.Dim)
		ds.X[i].AddTo(row, 1)
		for _, v := range row {
			sb.WriteString(formatFloat(v))
			sb.WriteByte(',')
		}
		sb.WriteString(formatFloat(ds.Y[i]))
		sb.WriteByte('\n')
	}
	h, err := s.Store().Ingest(strings.NewReader(sb.String()), ingestCSVOptions())
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return h.ID
}

// TestDatasetDeleteRefusedWhileReferenced: a dataset backing a queued or
// running job returns 409 with the job ids; once the job is gone the delete
// succeeds.
func TestDatasetDeleteRefusedWhileReferenced(t *testing.T) {
	// A cluster-mode server with no workers keeps the job deterministically
	// in the running state (blocked on the remote task) for as long as the
	// test needs.
	s, ts := newClusterServer(t, clusterTestConfig())
	id := uploadDataset(t, s)

	req := TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{ID: id},
		Epsilon: 0.1,
		Options: TrainOptions{Seed: 2, InitialSampleSize: 300},
	}
	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	// Whether the job is still queued or already running, the delete must
	// be refused with the referencing job id.
	var er ErrorResponse
	code := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil, &er)
	if code != http.StatusConflict {
		t.Fatalf("delete status %d, want 409", code)
	}
	if len(er.Jobs) != 1 || er.Jobs[0] != ack.JobID {
		t.Fatalf("409 jobs = %v, want [%s]", er.Jobs, ack.JobID)
	}
	if !strings.Contains(er.Error, ack.JobID) {
		t.Fatalf("409 error %q does not name the job", er.Error)
	}

	// Cancel the job; once it is terminal the delete goes through.
	if code := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+ack.JobID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	waitJob(t, ts.Client(), ts.URL, ack.JobID, 30*time.Second)
	if code := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete after cancel status %d, want 204", code)
	}
}

// TestQueueListAndDatasetTracking exercises the queue-level API directly:
// List order/filter and ActiveDatasetJobs lifecycle.
func TestQueueListAndDatasetTracking(t *testing.T) {
	q := NewQueue(1, 8, nil)
	defer q.Close()

	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock() // Close() drains the worker only once the task can finish

	j1, err := q.Enqueue(fakeDatasetTask{ds: "d-000001", run: func(ctx context.Context) (TaskResult, error) {
		<-block
		return TaskResult{}, nil
	}})
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	j2, err := q.Enqueue(fakeDatasetTask{ds: "d-000001", run: func(ctx context.Context) (TaskResult, error) {
		return TaskResult{}, nil
	}})
	if err != nil {
		t.Fatalf("enqueue 2: %v", err)
	}

	// Wait for j1 to be picked up (j2 stays queued behind the one worker);
	// both must show as active referencers of the dataset.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := j1.Status(); st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("j1 never started: %s", j1.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ids := q.ActiveDatasetJobs("d-000001"); len(ids) != 2 || ids[0] != j1.ID || ids[1] != j2.ID {
		t.Fatalf("ActiveDatasetJobs = %v, want [%s %s]", ids, j1.ID, j2.ID)
	}
	if ids := q.ActiveDatasetJobs("d-999999"); len(ids) != 0 {
		t.Fatalf("unrelated dataset has jobs: %v", ids)
	}
	if got := q.List(JobRunning); len(got) != 1 || got[0].ID != j1.ID {
		t.Fatalf("List(running) = %+v", got)
	}

	unblock()
	for {
		if ids := q.ActiveDatasetJobs("d-000001"); len(ids) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still active after completion: %v", q.ActiveDatasetJobs("d-000001"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := q.List(""); len(got) != 2 {
		t.Fatalf("List() = %d jobs, want 2", len(got))
	}
}

// fakeDatasetTask is a scriptable task carrying a dataset reference.
type fakeDatasetTask struct {
	ds  string
	run func(ctx context.Context) (TaskResult, error)
}

func (f fakeDatasetTask) Kind() string      { return "train" }
func (f fakeDatasetTask) datasetID() string { return f.ds }
func (f fakeDatasetTask) Run(ctx context.Context) (TaskResult, error) {
	return f.run(ctx)
}

// TestClusterWorkerGracefulShutdownRequeues: stopping a worker mid-task
// hands the task back; a replacement finishes the job.
func TestClusterWorkerGracefulShutdownRequeues(t *testing.T) {
	s, ts := newClusterServer(t, clusterTestConfig())

	// Slow-ish job so the shutdown lands mid-task (the lease wait below
	// guarantees it regardless).
	req := TrainRequest{
		Model:   modelSpec("maxent"),
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "mnist", Rows: 8000, Dim: 48, Seed: 3}},
		Epsilon: 0.05,
		Options: TrainOptions{Seed: 3, InitialSampleSize: 1000},
	}
	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: ts.URL, Name: "leaving", DataDir: t.TempDir(),
		Log: obs.Discard(),
	})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(wctx) }()

	// Wait until the task is leased (job running), then stop the worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.Coordinator().Status(); st.TasksLeased == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task never leased")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopWorker()
	<-workerDone

	// The graceful handback requeues the task; a replacement completes it.
	startClusterWorker(t, ts.URL, "replacement")
	st := waitJob(t, ts.Client(), ts.URL, ack.JobID, 120*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("job after graceful shutdown: %s (%s)", st.State, st.Error)
	}
}
