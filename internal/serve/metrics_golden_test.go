package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
)

var (
	seriesName = regexp.MustCompile(`^[A-Za-z_:][A-Za-z0-9_:]*`)
	labelPair  = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)="(?:[^"\\]|\\.)*"`)
)

// seriesShape reduces one exposition line to its metric name and label
// keys: `x_bucket{route="/v1/train",le="0.5"} 3` becomes `x_bucket{route,le}`.
func seriesShape(line string) string {
	name := seriesName.FindString(line)
	if !strings.HasPrefix(line[len(name):], "{") {
		return name
	}
	var keys []string
	for _, m := range labelPair.FindAllStringSubmatch(line[len(name):], -1) {
		keys = append(keys, m[1])
	}
	return name + "{" + strings.Join(keys, ",") + "}"
}

// exerciseForMetrics drives every job kind and read path on one server:
// dataset upload, train and tune by dataset id, a train whose replay
// realizes a non-zero difference (regression on synthetic data), predict,
// and an audit replay of all three records.
func exerciseForMetrics(t *testing.T, ts *httptest.Server) {
	t.Helper()
	client := ts.Client()
	resp, err := client.Post(ts.URL+"/v1/datasets?format=csv&task=binary", "text/csv", bytes.NewReader(higgsCSV(t, 1200)))
	if err != nil {
		t.Fatal(err)
	}
	var info StoredDataset
	if err := jsonDecode(resp, &info); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	train := runJob(t, ts, "/v1/train", TrainRequest{
		Model:   modelio.SpecJSON{Name: "logistic", Reg: 0.001},
		Dataset: DatasetRef{ID: info.ID},
		Epsilon: 0.1,
		Options: TrainOptions{Seed: 3, InitialSampleSize: 300},
	})
	tuned := runJob(t, ts, "/v1/tune", TuneRequest{
		Space:   SpaceJSON{Grid: []modelio.SpecJSON{{Name: "logistic", Reg: 0.01}, {Name: "logistic", Reg: 0.0001}}},
		Dataset: DatasetRef{ID: info.ID},
		Epsilon: 0.1,
		Options: TuneOptions{Seed: 5, InitialSampleSize: 300},
	})
	linear := runJob(t, ts, "/v1/train", TrainRequest{
		Model:   modelio.SpecJSON{Name: "linear", Reg: 0.001},
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "gas", Rows: 2500, Dim: 6, Seed: 100}},
		Epsilon: 0.2,
		Options: TrainOptions{Seed: 1, InitialSampleSize: 600},
	})
	for _, st := range []JobStatus{train, tuned, linear} {
		if st.State != JobSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}

	var pr PredictResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/"+train.ModelID+"/predict",
		PredictRequest{Rows: [][]float64{make([]float64, info.Dim)}}, &pr); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	var rr AuditReplayResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/audit/replay", AuditReplayRequest{}, &rr); code != http.StatusOK || rr.Replayed != 3 {
		t.Fatalf("audit replay status %d: %+v", code, rr)
	}
}

// TestMetricsSeriesInventoryGolden pins what a rewrite of the metrics
// plumbing (ROADMAP item 2) must hold fixed: the set of series on GET
// /metrics — metric names and label keys, values and label values
// stripped — after a local server and a coordinator with an in-process
// worker have each run upload, train, tune, predict and audit replay. The
// test touches everything that makes a series appear, and label values
// (routes, status classes, model families) are dropped, so the set is the
// same whichever tests ran before it in the process. The golden file was
// generated from the commit before this test was added.
func TestMetricsSeriesInventoryGolden(t *testing.T) {
	local, err := New(Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer local.Close()
	localTS := httptest.NewServer(local.Handler())
	defer localTS.Close()
	exerciseForMetrics(t, localTS)

	_, clusterTS := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, clusterTS.URL, "w1")
	exerciseForMetrics(t, clusterTS)

	resp, err := clusterTS.Client().Get(clusterTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			seen[seriesShape(line)] = true
		}
	}
	got := make([]string, 0, len(seen))
	for s := range seen {
		got = append(got, s)
	}
	sort.Strings(got)

	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_names.golden"))
	if err != nil {
		t.Fatalf("%v\nscraped inventory:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	inWant := map[string]bool{}
	for _, s := range want {
		inWant[s] = true
		if !seen[s] {
			t.Errorf("series gone from /metrics: %s", s)
		}
	}
	for _, s := range got {
		if !inWant[s] {
			t.Errorf("series new on /metrics: %s", s)
		}
	}
}
