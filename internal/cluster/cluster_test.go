package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/store"
	"blinkml/internal/tune"
)

// testCluster is one in-process coordinator + HTTP server.
type testCluster struct {
	coord  *Coordinator
	server *httptest.Server
}

func newTestCluster(t *testing.T, cfg Config, st *store.Store) *testCluster {
	t.Helper()
	coord := NewCoordinator(cfg, st)
	mux := http.NewServeMux()
	coord.Mount(mux)
	server := httptest.NewServer(mux)
	t.Cleanup(func() {
		coord.Close()
		server.Close()
	})
	return &testCluster{coord: coord, server: server}
}

// startWorker runs a real Worker against the cluster until the test ends.
func (tc *testCluster) startWorker(t *testing.T, name string) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: tc.server.URL,
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
	return w
}

// syntheticRef is a small deterministic binary-classification workload.
func syntheticRef() DatasetRef {
	return DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 4000, Dim: 8, Seed: 11}}
}

func testTrainOptions() core.Options {
	return core.Options{Epsilon: 0.08, Delta: 0.05, Seed: 7, InitialSampleSize: 400}
}

// localModel trains in-process — the reference the remote path must match
// bit for bit.
func localModel(t *testing.T, ref DatasetRef, opts core.Options) *core.Result {
	t.Helper()
	s := ref.Synthetic
	ds, err := s.Build()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	spec, err := (modelio.SpecJSON{Name: "logistic"}).Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	res, err := core.TrainSourceContext(context.Background(), spec, ds, opts)
	if err != nil {
		t.Fatalf("local train: %v", err)
	}
	return res
}

// TestRemoteTrainMatchesLocal: one train task through a real worker must
// reproduce the in-process result bit for bit (same seed, same process-wide
// compute parallelism).
func TestRemoteTrainMatchesLocal(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	tc.startWorker(t, "w1")

	opts := testTrainOptions()
	want := localModel(t, syntheticRef(), opts)

	id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: syntheticRef(),
		Options: opts,
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload, err := tc.coord.Await(ctx, id)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	m, err := DecodeModel(payload.Model)
	if err != nil {
		t.Fatalf("decode model: %v", err)
	}
	if len(m.Theta) != len(want.Theta) {
		t.Fatalf("remote theta has %d params, want %d", len(m.Theta), len(want.Theta))
	}
	for i := range m.Theta {
		if m.Theta[i] != want.Theta[i] {
			t.Fatalf("theta[%d]: remote %v != local %v (bit-exactness violated)", i, m.Theta[i], want.Theta[i])
		}
	}
	if m.SampleSize != want.SampleSize || m.EstimatedEpsilon != want.EstimatedEpsilon || m.PoolSize != want.PoolSize {
		t.Fatalf("contract metadata differs: remote {n=%d ε=%v N=%d} local {n=%d ε=%v N=%d}",
			m.SampleSize, m.EstimatedEpsilon, m.PoolSize, want.SampleSize, want.EstimatedEpsilon, want.PoolSize)
	}
}

// TestRemoteTuneMatchesLocal: a whole search through the remote trial
// runner must reproduce the in-process leaderboard and winner exactly.
func TestRemoteTuneMatchesLocal(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	tc.startWorker(t, "w1")

	ref := syntheticRef()
	space := tune.Space{Grid: mustSpecs(t,
		modelio.SpecJSON{Name: "logistic", Reg: 0.0005},
		modelio.SpecJSON{Name: "logistic", Reg: 0.01},
		modelio.SpecJSON{Name: "logistic", Reg: 0.3},
	)}

	opts := core.Options{Epsilon: 0.1, Delta: 0.05, Seed: 5, InitialSampleSize: 300, TestFraction: 0.15}
	cfg := tune.Config{Train: opts, Workers: 2, Seed: 5}

	// Local reference search.
	s := ref.Synthetic
	ds, err := s.Build()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	want, err := tune.RunSource(context.Background(), space, ds, cfg)
	if err != nil {
		t.Fatalf("local search: %v", err)
	}

	runner := NewTrialRunner(tc.coord.Run, ref, opts, core.PoolSize(s.Rows, opts))
	got, err := tune.SearchRunner(context.Background(), space, runner, cfg)
	if err != nil {
		t.Fatalf("remote search: %v", err)
	}

	if got.Evaluated != want.Evaluated || got.PoolSize != want.PoolSize {
		t.Fatalf("search shape differs: got %d/%d, want %d/%d", got.Evaluated, got.PoolSize, want.Evaluated, want.PoolSize)
	}
	for i := range want.Leaderboard {
		ge, we := got.Leaderboard[i], want.Leaderboard[i]
		if ge.Spec.Name() != we.Spec.Name() || !sameScore(ge.TestError, we.TestError) || ge.SampleSize != we.SampleSize {
			t.Fatalf("leaderboard row %d differs: remote {%s %v n=%d} local {%s %v n=%d}",
				i, ge.Spec.Name(), ge.TestError, ge.SampleSize, we.Spec.Name(), we.TestError, we.SampleSize)
		}
	}
	for i := range want.Best.Theta {
		if got.Best.Theta[i] != want.Best.Theta[i] {
			t.Fatalf("winner theta[%d]: remote %v != local %v", i, got.Best.Theta[i], want.Best.Theta[i])
		}
	}

	// A leaderboard row reports the spec as trained, wherever that happened:
	// PPCA's σ² is derived from θ on the instance that trained, which through
	// a task runner is not the candidate's own. (Remote rows used to show the
	// untrained default, 1.)
	ppca := func() tune.Space {
		return tune.Space{Grid: mustSpecs(t, modelio.SpecJSON{Name: "ppca", Factors: 2}, modelio.SpecJSON{Name: "ppca", Factors: 3})}
	}
	want, err = tune.RunSource(context.Background(), ppca(), ds, cfg)
	if err != nil {
		t.Fatalf("local ppca search: %v", err)
	}
	got, err = tune.SearchRunner(context.Background(), ppca(), runner, cfg)
	if err != nil {
		t.Fatalf("remote ppca search: %v", err)
	}
	for i := range want.Leaderboard {
		wj, werr := modelio.SpecToJSON(want.Leaderboard[i].Spec)
		gj, gerr := modelio.SpecToJSON(got.Leaderboard[i].Spec)
		if werr != nil || gerr != nil {
			t.Fatalf("leaderboard row %d spec: %v / %v", i, werr, gerr)
		}
		if gj != wj || gj.SigmaSq == 0 || gj.SigmaSq == 1 {
			t.Fatalf("ppca leaderboard row %d: remote %+v local %+v, want equal with a trained sigma_sq", i, gj, wj)
		}
	}
}

// TestWorkerDeathMidTaskRequeues is the acceptance scenario: a worker
// leases the task and dies silently mid-flight; the coordinator requeues it
// onto a replacement worker, and the final result is identical to the
// in-process run.
func TestWorkerDeathMidTaskRequeues(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)

	opts := testTrainOptions()
	want := localModel(t, syntheticRef(), opts)

	id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: syntheticRef(),
		Options: opts,
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// A "worker" that leases the task and dies on the spot: it never
	// completes and never heartbeats again — the deterministic version of a
	// kill -9 mid-task.
	doomed := registerWorker(t, tc.coord, "doomed")
	lease := mustLease(t, tc.coord, doomed)
	if lease.TaskID != id {
		t.Fatalf("doomed worker leased %s, want %s", lease.TaskID, id)
	}
	tc.coord.reapDead(time.Now().Add(time.Minute))

	// The replacement is a real worker; it must pick the task up and finish
	// the job with the exact same answer.
	tc.startWorker(t, "replacement")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload, err := tc.coord.Await(ctx, id)
	if err != nil {
		t.Fatalf("await after requeue: %v", err)
	}
	m, err := DecodeModel(payload.Model)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range want.Theta {
		if m.Theta[i] != want.Theta[i] {
			t.Fatalf("requeued result theta[%d] = %v, want %v — requeue changed the answer", i, m.Theta[i], want.Theta[i])
		}
	}
}

// TestWorkerFetchesAndCachesDataset: a stored-dataset task makes the worker
// download the bundle once; later tasks against the same content reuse the
// cache.
func TestWorkerFetchesAndCachesDataset(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: 2000, Dim: 6, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var csv bytes.Buffer
	for i := 0; i < ds.Len(); i++ {
		row := make([]float64, ds.Dim)
		ds.X[i].AddTo(row, 1)
		for _, v := range row {
			fmt.Fprintf(&csv, "%v,", v)
		}
		fmt.Fprintf(&csv, "%v\n", ds.Y[i])
	}
	h, err := st.Ingest(strings.NewReader(csv.String()), store.IngestOptions{
		Format: "csv", Task: ds.Task, Name: "higgs-test",
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	man := h.Manifest()
	ref := DatasetRef{ID: h.ID, Rows: man.Rows, RowCRC32: man.RowCRC32, IndexCRC32: man.IndexCRC32}

	tc := newTestCluster(t, testConfig(), st)
	w := tc.startWorker(t, "w1")

	opts := core.Options{Epsilon: 0.1, Delta: 0.05, Seed: 9, InitialSampleSize: 300}
	// The same training against the coordinator's store handle, locally.
	spec, _ := (modelio.SpecJSON{Name: "logistic"}).Spec()
	want, err := core.TrainSourceContext(context.Background(), spec, h, opts)
	if err != nil {
		t.Fatalf("local train: %v", err)
	}

	submitAndDecode := func() *modelio.Model {
		id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Train: &TrainTask{
			Spec: modelio.SpecJSON{Name: "logistic"}, Dataset: ref, Options: opts,
		}})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		payload, err := tc.coord.Await(ctx, id)
		if err != nil {
			t.Fatalf("await: %v", err)
		}
		m, err := DecodeModel(payload.Model)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return m
	}

	m1 := submitAndDecode()
	for i := range want.Theta {
		if m1.Theta[i] != want.Theta[i] {
			t.Fatalf("store-backed remote theta[%d] = %v, want %v", i, m1.Theta[i], want.Theta[i])
		}
	}
	// The bundle must now be in the worker's local cache under the same id.
	cached, err := w.cache.Get(h.ID)
	if err != nil {
		t.Fatalf("worker cache miss after task: %v", err)
	}
	if cm := cached.Manifest(); cm.RowCRC32 != man.RowCRC32 {
		t.Fatalf("cached checksum %08x, want %08x", cm.RowCRC32, man.RowCRC32)
	}
	fetches := tc.coord.m.DatasetsExported.Value()

	// A second task must not refetch.
	m2 := submitAndDecode()
	if m2.Theta[0] != m1.Theta[0] {
		t.Fatal("second run differs from first")
	}
	if got := tc.coord.m.DatasetsExported.Value(); got != fetches {
		t.Fatalf("dataset refetched: %d exports, want %d", got, fetches)
	}
}

// TestWorkerReportsTrainingError: a deterministic failure on the worker
// surfaces as a TaskError without retries burning more workers.
func TestWorkerReportsTrainingError(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	tc.startWorker(t, "w1")
	// counts is a regression workload; logistic on it fails label
	// validation inside training.
	id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "counts", Rows: 500, Dim: 4, Seed: 1}},
		Options: core.Options{Epsilon: 0.1, Seed: 1, InitialSampleSize: 100},
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := tc.coord.Await(ctx, id); err == nil {
		t.Fatal("await succeeded for an impossible task")
	}
}

func mustSpecs(t *testing.T, sjs ...modelio.SpecJSON) []models.Spec {
	t.Helper()
	out := make([]models.Spec, len(sjs))
	for i, sj := range sjs {
		spec, err := sj.Spec()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		out[i] = spec
	}
	return out
}

func sameScore(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// TestInlineKeyIsContentAddressed: two inline payloads with identical
// shapes but different values must never share a cache identity (a shared
// key would let a worker's env cache serve one job's rows to another).
func TestInlineKeyIsContentAddressed(t *testing.T) {
	a := DatasetRef{Inline: &dataset.Inline{Task: "binary", X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{0, 1}}}
	b := DatasetRef{Inline: &dataset.Inline{Task: "binary", X: [][]float64{{1, 2}, {3, 5}}, Y: []float64{0, 1}}}
	c := DatasetRef{Inline: &dataset.Inline{Task: "binary", X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{1, 1}}}
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Fatalf("inline keys collide: %q %q %q", a.Key(), b.Key(), c.Key())
	}
	same := DatasetRef{Inline: &dataset.Inline{Task: "binary", X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{0, 1}}}
	if a.Key() != same.Key() {
		t.Fatalf("equal content produced different keys: %q vs %q", a.Key(), same.Key())
	}
}

// TestFailedEnvBuildsDoNotEvictHealthyOnes: a dataset that cannot be built
// is dropped from the env cache entirely, so retrying it never pushes out
// environments that work.
func TestFailedEnvBuildsDoNotEvictHealthyOnes(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", DataDir: t.TempDir(), Log: obs.Discard()})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	ctx, opts := context.Background(), testTrainOptions()
	goodRef := func(seed int) DatasetRef {
		return DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 200, Dim: 4, Seed: int64(seed)}}
	}
	var good []*core.Env
	for seed := 1; seed <= 3; seed++ {
		env, err := w.tasks.envFor(ctx, goodRef(seed), opts)
		if err != nil {
			t.Fatalf("good env %d: %v", seed, err)
		}
		good = append(good, env)
	}
	bad := DatasetRef{Synthetic: &datagen.Ref{Name: "no-such-generator"}}
	for i := 0; i < 6; i++ {
		if _, err := w.tasks.envFor(ctx, bad, opts); err == nil {
			t.Fatal("unknown generator built an env")
		}
	}
	for i, want := range good {
		got, err := w.tasks.envFor(ctx, goodRef(i+1), opts)
		if err != nil || got != want {
			t.Fatalf("good env %d was rebuilt (err %v)", i+1, err)
		}
	}
}

// TestTrialsDifferingOnlyInEpsilonShareOneEnv: the environment a trial runs
// in is keyed by what shapes the split — dataset content, split options,
// seed — and not by the contract, so two trial tasks on one dataset that
// differ only in ε prepare the data once: the second reads no row the first
// already materialized (holdout, rung subsample).
func TestTrialsDifferingOnlyInEpsilonShareOneEnv(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", DataDir: t.TempDir(), Log: obs.Discard()})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: 2000, Dim: 6, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, ds); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	// Straight into the worker's bundle cache: no coordinator to fetch from.
	h, err := w.cache.Ingest(&csv, store.IngestOptions{Format: "csv", Task: ds.Task})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	man := h.Manifest()
	ref := DatasetRef{ID: h.ID, Rows: man.Rows, RowCRC32: man.RowCRC32, IndexCRC32: man.IndexCRC32}

	trial := func(eps float64) {
		t.Helper()
		opts := testTrainOptions()
		opts.Epsilon = eps
		_, err := w.tasks.Run(context.Background(), TaskSpec{Kind: KindTrial, Trial: &TrialTask{
			Spec: modelio.SpecJSON{Name: "logistic"}, Dataset: ref, Options: opts, N: 300,
		}})
		if err != nil {
			t.Fatalf("trial at ε=%v: %v", eps, err)
		}
	}
	trial(0.08)
	first := h.RowsMaterialized()
	if first == 0 {
		t.Fatal("the first trial read nothing from the store")
	}
	trial(0.04)
	if again := h.RowsMaterialized() - first; again != 0 {
		t.Fatalf("a trial differing only in ε re-read %d rows (the first read %d): it built its own environment", again, first)
	}
}

// TestTaskRunnerContainsPanic: a panic anywhere under a task — here in the
// resolver the runner was handed — comes back from Run as the task's error,
// one line with the stack attached, and the runner serves the next task. It
// used to take the process (this test binary) down.
func TestTaskRunnerContainsPanic(t *testing.T) {
	r := NewTaskRunner(core.NewCache(sharedWorkerMetrics()), func(context.Context, DatasetRef) (*store.Handle, error) {
		var none []int
		return nil, fmt.Errorf("row %d", none[3])
	})
	train := func(ref DatasetRef) error {
		_, err := r.Run(context.Background(), TaskSpec{Kind: KindTrain, Train: &TrainTask{
			Spec: modelio.SpecJSON{Name: "logistic"}, Dataset: ref, Options: testTrainOptions(),
		}})
		return err
	}
	err := train(DatasetRef{ID: "d-000001"})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("a panicking resolver returned %v, want a *PanicError", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "panic: ") || !strings.Contains(msg, "index out of range") || strings.Contains(msg, "\n") {
		t.Fatalf("error text %q, want one line: panic: <value>", msg)
	}
	if !strings.Contains(string(pe.Stack), "TestTaskRunnerContainsPanic") {
		t.Fatalf("stack does not reach the panicking frame:\n%s", pe.Stack)
	}
	if err := train(syntheticRef()); err != nil {
		t.Fatalf("a healthy task after the contained panic: %v", err)
	}
}

// TestProtocolBodyIsOneJSONValue: a protocol request body is exactly one
// JSON value; anything but whitespace after it is a structured 400, not a
// silently ignored suffix.
func TestProtocolBodyIsOneJSONValue(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	const valid = `{"name":"w","capacity":1,"parallelism":1}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"one value", valid, http.StatusOK},
		{"trailing whitespace", valid + "\n \t\r\n", http.StatusOK},
		{"second value", valid + ` {"capacity":9}`, http.StatusBadRequest},
		{"trailing word", valid + " trailing", http.StatusBadRequest},
		{"stray closer", valid + "}", http.StatusBadRequest},
	} {
		resp, err := http.Post(tc.server.URL+"/v1/cluster/register", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, raw)
			continue
		}
		if c.want != http.StatusBadRequest {
			continue
		}
		var pe protoError
		if err := json.Unmarshal(raw, &pe); err != nil || pe.Error != "cluster: bad request body: unexpected data after JSON value" {
			t.Errorf("%s: body %s, want the structured trailing-data error", c.name, raw)
		}
	}
}
