package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blinkml/internal/audit"
	"blinkml/internal/cluster"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
)

// TestAuditEndToEnd is the guarantee-audit acceptance path: train 20 jobs
// across two model families, replay them all through the auditor, and
// check that (a) every family's empirical coverage meets its 1−δ target,
// (b) the audit view joins into the job endpoint, (c) the replayed
// full-data models are bit-identical to direct training at the recorded
// options, and (d) the coverage and per-family latency series reach the
// metrics endpoint.
func TestAuditEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("audit end-to-end skipped in -short mode")
	}
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Two families, ten jobs each, every job with its own seed. The ε is
	// generous relative to these easy synthetic workloads, so the contract
	// should hold on every replay (coverage 1.0 ≥ 1−δ).
	type jobCase struct {
		family string
		data   string
	}
	cases := []jobCase{{"logistic", "higgs"}, {"linear", "gas"}}
	var jobIDs []string
	for _, c := range cases {
		for i := 0; i < 10; i++ {
			req := TrainRequest{
				Model:   modelio.SpecJSON{Name: c.family, Reg: 0.001},
				Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: c.data, Rows: 2500, Dim: 6, Seed: int64(100 + i)}},
				Epsilon: 0.2,
				Delta:   0.05,
				Options: TrainOptions{Seed: int64(10*i + 1), InitialSampleSize: 600},
			}
			var tr TrainResponse
			if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", req, &tr); code != http.StatusAccepted {
				t.Fatalf("train %s/%d status %d", c.family, i, code)
			}
			jobIDs = append(jobIDs, tr.JobID)
		}
	}
	for _, id := range jobIDs {
		if st := waitJob(t, client, ts.URL, id, 120*time.Second); st.State != JobSucceeded {
			t.Fatalf("job %s: %+v", id, st)
		}
	}

	// All 20 jobs must have calibration records and sit pending.
	var before audit.Report
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/audit", nil, &before)
	if before.Records != 20 || before.Pending != 20 {
		t.Fatalf("before replay: %+v", before)
	}

	var rr AuditReplayResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/audit/replay", AuditReplayRequest{}, &rr); code != http.StatusOK {
		t.Fatalf("replay status %d: %+v", code, rr)
	}
	if rr.Replayed != 20 {
		t.Fatalf("replayed %d, want 20", rr.Replayed)
	}

	var rep audit.Report
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/audit", nil, &rep)
	if rep.Replayed != 20 || rep.Pending != 0 || rep.Failures != 0 {
		t.Fatalf("after replay: %+v", rep)
	}
	if len(rep.Families) != 2 {
		t.Fatalf("families %+v, want linear+logistic", rep.Families)
	}
	for _, fr := range rep.Families {
		if fr.Replayed != 10 {
			t.Fatalf("family %s replayed %d, want 10", fr.Family, fr.Replayed)
		}
		if fr.Coverage < fr.Target {
			t.Fatalf("family %s coverage %v below target %v", fr.Family, fr.Coverage, fr.Target)
		}
		if fr.MeanCalibration < 1 {
			t.Fatalf("family %s mean calibration %v < 1 with zero violations", fr.Family, fr.MeanCalibration)
		}
	}

	// The job endpoint joins the audit entry.
	var st JobStatus
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+jobIDs[0], nil, &st)
	if st.Audit == nil || st.Audit.Replay == nil {
		t.Fatalf("job %s missing audit join: %+v", jobIDs[0], st.Audit)
	}
	if st.Audit.Record.JobID != jobIDs[0] || st.Audit.Record.TraceID != st.TraceID {
		t.Fatalf("audit record identity mismatch: %+v vs job %s trace %s", st.Audit.Record, jobIDs[0], st.TraceID)
	}
	if !st.Audit.Replay.Satisfied {
		t.Fatalf("job %s replay violated its bound: %+v", jobIDs[0], st.Audit.Replay)
	}

	// Bit-identity: direct full-data training at each record's options must
	// reproduce the replayed full model exactly (one record per family).
	var entries []audit.Entry
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/audit/records", nil, &entries)
	if len(entries) != 20 {
		t.Fatalf("records = %d, want 20", len(entries))
	}
	checked := map[string]bool{}
	for _, e := range entries {
		if checked[e.Record.Family] {
			continue
		}
		checked[e.Record.Family] = true
		spec, err := e.Record.Spec.Spec()
		if err != nil {
			t.Fatal(err)
		}
		var ref DatasetRef
		if err := json.Unmarshal(e.Record.Dataset, &ref); err != nil {
			t.Fatalf("record dataset ref: %v", err)
		}
		src, err := ref.Synthetic.Build()
		if err != nil {
			t.Fatal(err)
		}
		env, err := core.NewEnvFromSource(src, e.Record.Options)
		if err != nil {
			t.Fatal(err)
		}
		full, err := env.TrainFull(spec, e.Record.Options.Optimizer)
		if err != nil {
			t.Fatal(err)
		}
		direct := fmt.Sprintf("%016x", core.ThetaFingerprint(full.Theta))
		if direct != e.Replay.FullThetaFNV {
			t.Fatalf("family %s: direct training %s != replay %s", e.Record.Family, direct, e.Replay.FullThetaFNV)
		}
	}
	if len(checked) != 2 {
		t.Fatalf("bit-identity checked %v, want both families", checked)
	}

	// Coverage gauges and per-family latency reach the exposition endpoint.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`blinkml_audit_coverage{family="logistic"} 1`,
		`blinkml_audit_coverage{family="linear"} 1`,
		"blinkml_audit_replays 20",
		`blinkml_train_latency_family_ms_count{family="logistic"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestClusterAuditReplayAndScoreboard: in coordinator mode the replay runs
// as a KindAudit task on a worker — same coverage result, same determinism
// — and the fleet scoreboard (completions, error rate, lease-to-complete
// p95) shows up in /v1/cluster/status.
func TestClusterAuditReplayAndScoreboard(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster audit skipped in -short mode")
	}
	_, ts := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, ts.URL, "w1")

	st := runJob(t, ts, "/v1/train", trainBody())
	if st.State != JobSucceeded {
		t.Fatalf("cluster train: %+v", st)
	}

	var rr AuditReplayResponse
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/audit/replay", AuditReplayRequest{}, &rr); code != http.StatusOK {
		t.Fatalf("cluster replay status %d: %+v", code, rr)
	}
	if rr.Replayed != 1 {
		t.Fatalf("replayed %d, want 1", rr.Replayed)
	}
	var job JobStatus
	doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &job)
	if job.Audit == nil || job.Audit.Replay == nil || job.Audit.Replay.Error != "" {
		t.Fatalf("cluster audit join: %+v", job.Audit)
	}
	if !job.Audit.Replay.Satisfied || job.Audit.Replay.FullThetaFNV == "" {
		t.Fatalf("cluster replay outcome: %+v", job.Audit.Replay)
	}

	var cst cluster.Status
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/cluster/status", nil, &cst); code != http.StatusOK {
		t.Fatalf("cluster status %d", code)
	}
	if len(cst.Workers) != 1 {
		t.Fatalf("workers %+v", cst.Workers)
	}
	// One train task plus one audit task completed on this worker.
	ws := cst.Workers[0]
	if ws.TasksCompleted < 2 || ws.TasksFailed != 0 || ws.ErrorRate != 0 {
		t.Fatalf("scoreboard %+v, want ≥2 completions and no failures", ws)
	}
	if ws.P95LeaseToCompleteMs <= 0 {
		t.Fatalf("scoreboard p95 lease-to-complete %v, want > 0", ws.P95LeaseToCompleteMs)
	}
	// Per-worker resource rollup from completed-task ledgers: the train task
	// burned pool CPU on this worker.
	if ws.CPUMs <= 0 {
		t.Fatalf("scoreboard cpu_ms %v, want > 0 after a completed train", ws.CPUMs)
	}
}

// TestClusterAuditReplayHonoursRecordedSplit: a replay must rebuild the
// split the job recorded, wherever it runs. A record whose options carry a
// non-default holdout cap is replayed once in-process and once as a
// KindAudit task on a worker; both must train the same full model. (The
// task used to carry a narrower options form that dropped max_holdout,
// holdout_fraction, k and method, so the worker split at the defaults.)
func TestClusterAuditReplayHonoursRecordedSplit(t *testing.T) {
	s, ts := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, ts.URL, "w1")

	req := trainBody()
	req.Dataset.Synthetic.Rows = 6000
	st := runJob(t, ts, "/v1/train", req)
	if st.State != JobSucceeded {
		t.Fatalf("cluster train: %+v", st)
	}
	m, err := s.Registry().Get(st.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.audit.Get(st.ModelID)
	if !ok {
		t.Fatalf("no audit record for %s", st.ModelID)
	}
	// Default split of 6000 rows holds out 600; the recorded cap halves it.
	rec := e.Record
	rec.Options.MaxHoldout = 300
	if err := s.audit.Append(rec); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	local, err := audit.LocalReplayer{Resolve: s.resolveAuditSource}.Replay(ctx, rec, m)
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	remote, err := clusterReplayer{s: s}.Replay(ctx, rec, m)
	if err != nil {
		t.Fatalf("cluster replay: %v", err)
	}
	if remote.FullThetaFNV != local.FullThetaFNV || remote.Realized != local.Realized {
		t.Fatalf("worker replayed a different environment: fingerprint %016x realized %v, in-process %016x realized %v",
			remote.FullThetaFNV, remote.Realized, local.FullThetaFNV, local.Realized)
	}
	atDefault, err := audit.LocalReplayer{Resolve: s.resolveAuditSource}.Replay(ctx, e.Record, m)
	if err != nil {
		t.Fatal(err)
	}
	if atDefault.FullThetaFNV == local.FullThetaFNV {
		t.Fatal("the holdout cap did not change the full model; the test cannot tell the two splits apart")
	}
}
