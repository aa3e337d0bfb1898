package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/datagen"
	"blinkml/internal/obs"
	"blinkml/internal/tune"
)

// clusterTestConfig keeps heartbeats fast; the liveness timeout stays far
// above any scheduling hiccup the race detector can cause, so only a truly
// silent worker is ever reaped.
func clusterTestConfig() *cluster.Config {
	return &cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SweepInterval:     10 * time.Millisecond,
		MaxAttempts:       3,
	}
}

// newClusterServer starts a serve.Server in coordinator mode behind an
// httptest server.
func newClusterServer(t *testing.T, cfg *cluster.Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8, Cluster: cfg})
	if err != nil {
		t.Fatalf("new cluster server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

// startClusterWorker runs a real blinkml-worker runtime against the server.
func startClusterWorker(t *testing.T, url, name string) {
	t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: url,
		Name:        name,
		DataDir:     t.TempDir(),
		Log:         obs.Discard(),
	})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		done.Wait()
	})
}

// trainBody is a fixed-seed train request over a synthetic workload, so the
// result is bit-reproducible across servers in one process.
func trainBody() TrainRequest {
	return TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 4000, Dim: 8, Seed: 11}},
		Epsilon: 0.08,
		Delta:   0.05,
		Options: TrainOptions{Seed: 7, InitialSampleSize: 400},
	}
}

// runJob submits a request and waits for the terminal status.
func runJob(t *testing.T, ts *httptest.Server, path string, body any) JobStatus {
	t.Helper()
	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+path, body, &ack); code != http.StatusAccepted {
		t.Fatalf("POST %s status %d", path, code)
	}
	return waitJob(t, ts.Client(), ts.URL, ack.JobID, 90*time.Second)
}

// fetchTheta returns the stored model's parameters.
func fetchTheta(t *testing.T, ts *httptest.Server, modelID string) ModelInfo {
	t.Helper()
	var info ModelInfo
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+modelID+"?theta=1", nil, &info); code != http.StatusOK {
		t.Fatalf("GET model status %d", code)
	}
	return info
}

// TestClusterTrainAndTuneMatchLocal is the acceptance scenario: a train job
// and a tune job submitted to a coordinator with one remote worker complete
// with results identical to the in-process path — two in-process HTTP
// servers, one local, one a coordinator with a real worker attached.
func TestClusterTrainAndTuneMatchLocal(t *testing.T) {
	// Local (non-cluster) reference server.
	local, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new local server: %v", err)
	}
	localTS := httptest.NewServer(local.Handler())
	defer func() {
		local.Close()
		localTS.Close()
	}()

	// Coordinator server + one remote worker.
	_, clusterTS := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, clusterTS.URL, "w1")

	// Train on both paths.
	lst := runJob(t, localTS, "/v1/train", trainBody())
	cst := runJob(t, clusterTS, "/v1/train", trainBody())
	if lst.State != JobSucceeded || cst.State != JobSucceeded {
		t.Fatalf("train states local=%s (%s) cluster=%s (%s)", lst.State, lst.Error, cst.State, cst.Error)
	}
	lm := fetchTheta(t, localTS, lst.ModelID)
	cm := fetchTheta(t, clusterTS, cst.ModelID)
	if len(lm.Theta) == 0 || len(lm.Theta) != len(cm.Theta) {
		t.Fatalf("theta sizes local=%d cluster=%d", len(lm.Theta), len(cm.Theta))
	}
	for i := range lm.Theta {
		if lm.Theta[i] != cm.Theta[i] {
			t.Fatalf("train theta[%d]: local %v != cluster %v", i, lm.Theta[i], cm.Theta[i])
		}
	}
	if lm.SampleSize != cm.SampleSize || lm.EstimatedEpsilon != cm.EstimatedEpsilon || lm.PoolSize != cm.PoolSize || lm.Dim != cm.Dim {
		t.Fatalf("model metadata differs: local %+v cluster %+v", lm, cm)
	}

	// Resource-attribution parity: the coordinator does no training in
	// cluster mode, so the worker-side ledger that rejoined the job record
	// must match the local run's on every deterministic field. CPU-class
	// fields (cpu_ms, kernel_ms, steals, queue wait) are wall-clock and
	// excluded by design.
	lr, cr := lst.Resources, cst.Resources
	if lr == nil || cr == nil {
		t.Fatalf("missing job resources: local=%+v cluster=%+v", lr, cr)
	}
	if lr.KernelCalls == 0 || lr.Flops == 0 {
		t.Fatalf("local ledger empty: %+v", lr)
	}
	if lr.KernelCalls != cr.KernelCalls || lr.Flops != cr.Flops ||
		lr.RowsMaterialized != cr.RowsMaterialized || lr.BytesMaterialized != cr.BytesMaterialized {
		t.Fatalf("deterministic ledger fields differ local vs cluster:\n  local   %+v\n  cluster %+v", lr, cr)
	}
	if cr.CPUMs <= 0 {
		t.Fatalf("worker-side CPU time did not rejoin the coordinator job: %+v", cr)
	}

	// A second contract on the same data at another ε: a plan hit on both
	// paths (the server's cache, the worker's cache), reported on the job
	// status, with the same model and the same — smaller — deterministic cost.
	again := trainBody()
	again.Epsilon = 0.05
	lst2 := runJob(t, localTS, "/v1/train", again)
	cst2 := runJob(t, clusterTS, "/v1/train", again)
	if lst.Plan != "miss" || cst.Plan != "miss" || lst2.Plan != "hit" || cst2.Plan != "hit" {
		t.Fatalf("plan outcomes local %q→%q cluster %q→%q, want miss→hit on both", lst.Plan, lst2.Plan, cst.Plan, cst2.Plan)
	}
	lm2, cm2 := fetchTheta(t, localTS, lst2.ModelID), fetchTheta(t, clusterTS, cst2.ModelID)
	if lm2.SampleSize != cm2.SampleSize || len(lm2.Theta) == 0 || !slices.Equal(lm2.Theta, cm2.Theta) {
		t.Fatalf("second contract differs: local n=%d cluster n=%d", lm2.SampleSize, cm2.SampleSize)
	}
	if l2, c2 := lst2.Resources, cst2.Resources; l2.KernelCalls != c2.KernelCalls || l2.Flops != c2.Flops ||
		l2.RowsMaterialized != c2.RowsMaterialized || l2.KernelCalls >= lr.KernelCalls {
		t.Fatalf("plan-hit ledgers: local %+v cluster %+v (miss: %+v)", l2, c2, lr)
	}

	// Tune on both paths (a small random space, decomposed to per-trial
	// remote tasks on the cluster side).
	tb := TuneRequest{
		Space:   SpaceJSON{Random: &tune.RandomSpace{Model: "logistic", N: 3}},
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 4000, Dim: 8, Seed: 11}},
		Epsilon: 0.1,
		Delta:   0.05,
		Options: TuneOptions{Seed: 5, InitialSampleSize: 300},
	}
	ltn := runJob(t, localTS, "/v1/tune", tb)
	ctn := runJob(t, clusterTS, "/v1/tune", tb)
	if ltn.State != JobSucceeded || ctn.State != JobSucceeded {
		t.Fatalf("tune states local=%s (%s) cluster=%s (%s)", ltn.State, ltn.Error, ctn.State, ctn.Error)
	}
	if ltn.Tune == nil || ctn.Tune == nil {
		t.Fatal("missing tune reports")
	}
	if len(ltn.Tune.Leaderboard) != len(ctn.Tune.Leaderboard) {
		t.Fatalf("leaderboard sizes differ: %d vs %d", len(ltn.Tune.Leaderboard), len(ctn.Tune.Leaderboard))
	}
	for i := range ltn.Tune.Leaderboard {
		le, ce := ltn.Tune.Leaderboard[i], ctn.Tune.Leaderboard[i]
		if le.Spec != ce.Spec || !sameScore(le.TestError, ce.TestError) || le.SampleSize != ce.SampleSize {
			t.Fatalf("leaderboard row %d differs: local %+v cluster %+v", i, le, ce)
		}
	}
	lwin := fetchTheta(t, localTS, ltn.ModelID)
	cwin := fetchTheta(t, clusterTS, ctn.ModelID)
	for i := range lwin.Theta {
		if lwin.Theta[i] != cwin.Theta[i] {
			t.Fatalf("tune winner theta[%d]: local %v != cluster %v", i, lwin.Theta[i], cwin.Theta[i])
		}
	}

	// The coordinator shows its worker in healthz.
	var h Health
	if code := doJSON(t, clusterTS.Client(), http.MethodGet, clusterTS.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Cluster == nil || h.Cluster.Workers != 1 {
		t.Fatalf("healthz cluster = %+v, want 1 worker", h.Cluster)
	}
}

// TestClusterWorkerLossRequeuesJob kills the worker mid-task; the
// coordinator requeues the job's task onto a replacement worker and the job
// still succeeds, with the same model a local run produces.
func TestClusterWorkerLossRequeuesJob(t *testing.T) {
	s, ts := newClusterServer(t, clusterTestConfig())

	// Reference result from a local (non-cluster) server in this same
	// process (same compute parallelism).
	local, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("new local server: %v", err)
	}
	localTS := httptest.NewServer(local.Handler())
	defer func() {
		local.Close()
		localTS.Close()
	}()
	want := runJob(t, localTS, "/v1/train", trainBody())
	if want.State != JobSucceeded {
		t.Fatalf("local reference failed: %s (%s)", want.State, want.Error)
	}
	wantTheta := fetchTheta(t, localTS, want.ModelID).Theta

	// Submit to the coordinator before any worker exists; the job leaves
	// the queue and blocks on the cluster task.
	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", trainBody(), &ack); code != http.StatusAccepted {
		t.Fatalf("train submit status %d", code)
	}

	// A doomed "worker" leases the task and dies silently (never completes,
	// never heartbeats): the heartbeat timeout must requeue the task.
	coord := s.Coordinator()
	reg, err := coord.Register(cluster.RegisterRequest{Name: "doomed", Capacity: 1})
	if err != nil {
		t.Fatalf("register doomed: %v", err)
	}
	lease, err := coord.Lease(context.Background(), reg.WorkerID, 5*time.Second)
	if err != nil || lease == nil {
		t.Fatalf("doomed lease: %v (%v)", lease, err)
	}

	// Wait for the sweeper to reap the silent worker, then bring up a real
	// one.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := coord.Status(); len(st.Workers) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent worker never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	startClusterWorker(t, ts.URL, "replacement")

	st := waitJob(t, ts.Client(), ts.URL, ack.JobID, 90*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("job after worker loss: %s (%s)", st.State, st.Error)
	}
	got := fetchTheta(t, ts, st.ModelID).Theta
	for i := range wantTheta {
		if got[i] != wantTheta[i] {
			t.Fatalf("requeued job theta[%d] = %v, want %v", i, got[i], wantTheta[i])
		}
	}
}

// TestClusterAttemptCapFailsJob: exhausting the lease attempts surfaces a
// structured cluster error in the job status.
func TestClusterAttemptCapFailsJob(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.MaxAttempts = 1
	s, ts := newClusterServer(t, cfg)

	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", trainBody(), &ack); code != http.StatusAccepted {
		t.Fatalf("train submit status %d", code)
	}
	coord := s.Coordinator()
	reg, err := coord.Register(cluster.RegisterRequest{Name: "doomed", Capacity: 1})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if lease, err := coord.Lease(context.Background(), reg.WorkerID, 5*time.Second); err != nil || lease == nil {
		t.Fatalf("lease: %v (%v)", lease, err)
	}
	// Silence: the sweeper reaps the worker and — with the cap at 1 — fails
	// the task instead of requeueing.
	st := waitJob(t, ts.Client(), ts.URL, ack.JobID, 30*time.Second)
	if st.State != JobFailed {
		t.Fatalf("job state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "failed after 1 attempt") || !strings.Contains(st.Error, "heartbeat timeout") {
		t.Fatalf("job error %q lacks the structured attempt record", st.Error)
	}
}

// TestClusterCancelPropagates cancels a job whose task a live worker is
// executing; the job reaches cancelled and the worker stays usable.
func TestClusterCancelPropagates(t *testing.T) {
	_, ts := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, ts.URL, "w1")

	// A big slow training keeps the worker busy long enough to cancel.
	req := trainBody()
	req.Dataset = DatasetRef{Synthetic: &datagen.Ref{Name: "mnist", Rows: 20000, Seed: 3}}
	req.Model = modelSpec("maxent")
	req.Epsilon = 0.01
	var ack TrainResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Wait until the job is running, then cancel it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+ack.JobID, nil, &st)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+ack.JobID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	final := waitJob(t, ts.Client(), ts.URL, ack.JobID, 60*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s (%s), want cancelled", final.State, final.Error)
	}

	// The worker must still serve later jobs.
	st2 := runJob(t, ts, "/v1/train", trainBody())
	if st2.State != JobSucceeded {
		t.Fatalf("job after cancel: %s (%s)", st2.State, st2.Error)
	}
}

// sameScore compares leaderboard scores, NaN (no supervised metric) equal
// to itself.
func sameScore(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
