package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/serve"
)

// pollEvery is the client's job-status poll interval.
const pollEvery = 2 * time.Millisecond

// served runs a workload from the wire: an in-process serve.Server behind a
// real loopback listener, one client, one connection, closed loop.
type served struct {
	w  *workload
	in *inputs

	dir       string
	srv       *serve.Server
	ts        *httptest.Server
	client    *http.Client
	datasetID string
	store     storeProbe       // on the uploaded dataset's handle
	model     modelio.SpecJSON // the spec as the wire names it

	lastK       int    // the last ladder run
	modelID     string // its last-rung model; predict ops hit it
	predictBody []byte
	expected    []float64

	// Per plain ladder: the finished jobs' statuses, one per rung, and the
	// client's poll count.
	ladders [][]serve.JobStatus
	polls   []float64
}

func setUpServed(w *workload, in *inputs) (inst *served, err error) {
	s := &served{w: w, in: in, client: &http.Client{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(".", tempPattern); err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(serve.Config{Dir: s.dir, Workers: 1, Parallelism: 1}); err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())

	var info serve.StoredDataset
	s.store.ingestMs = timeIt(func() {
		err = s.call("POST", "/v1/datasets?format=csv&task=binary", in.text, &info)
	})
	if err != nil {
		return nil, fmt.Errorf("upload dataset: %w", err)
	}
	s.datasetID = info.ID
	if s.store.handle, err = s.srv.Store().Get(info.ID); err != nil {
		return nil, err
	}

	if s.model, err = modelio.SpecToJSON(w.spec); err != nil {
		return nil, err
	}
	for k := 0; k < w.warmups; k++ {
		if _, err := s.contract(k, nil); err != nil {
			return nil, fmt.Errorf("warm-up ladder: %w", err)
		}
	}
	return s, nil
}

// request is the wire form of rung r of the run's k-th ladder.
func (s *served) request(r rung, k int) ([]byte, error) {
	opt := s.w.options(r, s.in.seed, k)
	return json.Marshal(serve.TrainRequest{
		Model:   s.model,
		Dataset: serve.DatasetRef{ID: s.datasetID},
		Epsilon: opt.Epsilon,
		Delta:   opt.Delta,
		Options: serve.TrainOptions{
			Seed:              opt.Seed,
			InitialSampleSize: opt.InitialSampleSize,
			MinSampleSize:     opt.MinSampleSize,
		},
	})
}

func (s *served) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// call makes one request and decodes a 2xx JSON reply into out; any other
// status is an error.
func (s *served) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return json.Unmarshal(reply, out)
}

// contract is one ε-ladder: the rungs' train jobs one after another, each
// from submit to the poll that sees it succeeded. Every rung's registered
// model is read back from the registry for its n and θ fingerprint.
func (s *served) contract(k int, tr *tracer) (info contractInfo, err error) {
	err = s.store.around(func() (err error) {
		info, err = s.ladder(k, tr)
		return err
	})
	return info, err
}

func (s *served) ladder(k int, tr *tracer) (contractInfo, error) {
	defer tr.begin("blinkml.contract")()
	var info contractInfo
	statuses := make([]serve.JobStatus, 0, len(s.w.rungs))
	polls := 0
	for i, r := range s.w.rungs {
		body, err := s.request(r, k)
		if err != nil {
			return info, err
		}
		endRung := tr.begin(fmt.Sprintf("serve.rung%d", i+1))
		st, n, err := s.runJob(tr, body)
		endRung()
		if err != nil {
			return info, fmt.Errorf("rung %d: %w", i+1, err)
		}
		polls += n
		m, err := s.srv.Registry().Get(st.ModelID)
		if err != nil {
			return info, fmt.Errorf("rung %d: model %s: %w", i+1, st.ModelID, err)
		}
		info.addRung(m.SampleSize, m.PoolSize, m.Diag.Probes, m.Theta)
		statuses = append(statuses, st)
		s.modelID = st.ModelID
	}
	s.lastK = k
	if tr == nil {
		s.ladders = append(s.ladders, statuses)
		s.polls = append(s.polls, float64(polls))
	}
	return info, nil
}

// runJob submits one train request and polls it to a terminal state. With a
// tracer the server's own spans, reported on the job status, are recorded
// under the rung.
func (s *served) runJob(tr *tracer, body []byte) (st serve.JobStatus, polls int, err error) {
	var ack serve.TrainResponse
	end := tr.begin("serve.submit")
	err = s.call("POST", "/v1/train", body, &ack)
	end()
	if err != nil {
		return st, 0, err
	}
	end = tr.begin("serve.poll")
	for {
		st = serve.JobStatus{}
		err = s.call("GET", "/v1/jobs/"+ack.JobID, nil, &st)
		polls++
		if err != nil || st.Done() {
			break
		}
		time.Sleep(pollEvery)
	}
	end()
	if err != nil {
		return st, polls, err
	}
	if st.State != serve.JobSucceeded {
		return st, polls, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if tr != nil && st.Trace != nil {
		for _, sp := range st.Trace.Spans {
			tr.add("job."+sp.Name, sp.Start, time.Duration(sp.DurMs*float64(time.Millisecond)))
		}
	}
	return st, polls, nil
}

// preparePredict marshals the fixed predict request and computes its
// expected reply from the registered model's θ directly.
func (s *served) preparePredict() error {
	m, err := s.srv.Registry().Get(s.modelID)
	if err != nil {
		return err
	}
	req := serve.PredictRequest{Rows: make([][]float64, len(s.in.rows))}
	s.expected = make([]float64, len(s.in.rows))
	for i, x := range s.in.rows {
		req.Rows[i] = x.(dataset.DenseRow)
		s.expected[i] = m.Spec.Predict(m.Theta, x)
	}
	s.predictBody, err = json.Marshal(req)
	return err
}

func (s *served) predict() error {
	var resp serve.PredictResponse
	if err := s.call("POST", "/v1/models/"+s.modelID+"/predict", s.predictBody, &resp); err != nil {
		return err
	}
	if len(resp.Predictions) != len(s.expected) {
		return fmt.Errorf("%d predictions for %d rows", len(resp.Predictions), len(s.expected))
	}
	for i, v := range resp.Predictions {
		if v != s.expected[i] {
			return fmt.Errorf("row %d: predicted %v, want %v", i, v, s.expected[i])
		}
	}
	return nil
}

// verify has nothing left to do: every ladder already read each rung's
// model back from the registry, and the phase's fingerprint gate compared
// it with the same ladder's earlier run.
func (s *served) verify() error { return nil }
