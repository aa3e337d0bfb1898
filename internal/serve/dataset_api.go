package serve

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/dataset"
	"blinkml/internal/store"
)

// StoredDataset is the wire view of a stored dataset (POST/GET
// /v1/datasets): the manifest without the checksums.
type StoredDataset struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Task    string `json:"task"`
	Rows    int    `json:"rows"`
	Dim     int    `json:"dim"`
	Classes int    `json:"classes,omitempty"`
	Sparse  bool   `json:"sparse"`
	// Encoding is the row record format on disk: "sparse" or "dense".
	Encoding     string    `json:"encoding"`
	NNZ          int64     `json:"nnz"`
	MeanNNZRow   float64   `json:"mean_nnz_per_row"`
	Density      float64   `json:"density"`
	DiskBytes    int64     `json:"disk_bytes"`
	SourceFormat string    `json:"source_format"`
	LabelMin     float64   `json:"label_min"`
	LabelMax     float64   `json:"label_max"`
	LabelMean    float64   `json:"label_mean"`
	CreatedAt    time.Time `json:"created_at,omitzero"`
}

// NewDatasetInfo builds the wire view of a store handle.
func NewDatasetInfo(h *store.Handle) StoredDataset {
	man := h.Manifest()
	encoding := "dense"
	if man.Sparse {
		encoding = "sparse"
	}
	meanNNZ := 0.0
	if man.Rows > 0 {
		meanNNZ = float64(man.NNZ) / float64(man.Rows)
	}
	return StoredDataset{
		ID:           h.ID,
		Name:         man.Name,
		Task:         man.Task,
		Rows:         man.Rows,
		Dim:          man.Dim,
		Classes:      man.NumClasses,
		Sparse:       man.Sparse,
		Encoding:     encoding,
		NNZ:          man.NNZ,
		MeanNNZRow:   meanNNZ,
		Density:      man.Density(),
		DiskBytes:    h.DiskBytes(),
		SourceFormat: man.SourceFormat,
		LabelMin:     man.LabelMin,
		LabelMax:     man.LabelMax,
		LabelMean:    man.LabelMean,
		CreatedAt:    man.CreatedAt,
	}
}

// DatasetList is the body of GET /v1/datasets.
type DatasetList struct {
	Datasets []StoredDataset `json:"datasets"`
}

// handleDatasetUpload is POST /v1/datasets: a streaming upload — the body
// flows through the parser into the store chunk by chunk and is never
// fully resident. Two encodings are accepted:
//
//   - multipart/form-data with the text fields (format, task, name,
//     label_col, dim, classes, max_line_bytes) before a "file" part that
//     carries the data;
//   - a raw body with the same parameters as query-string values, for
//     curl --data-binary pipelines.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	// The cap tracker remembers when MaxBytesReader fires: intermediate
	// readers (multipart framing, the line scanner) can swallow the typed
	// error — a cap-truncated body often surfaces as a bogus parse error on
	// its final partial line — so the 413 decision must not depend on what
	// error bubbles out.
	body := &cappedBody{rc: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)}

	var (
		opt  store.IngestOptions
		data io.Reader
	)
	params := ingestParams{}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "multipart/form-data" {
		// MultipartReader consumes r.Body directly; swap in the capped
		// reader so multipart uploads honor MaxUploadBytes too.
		r.Body = body
		mr, err := r.MultipartReader()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad multipart body: %w", err))
			return
		}
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				writeError(w, http.StatusBadRequest, errors.New(`serve: multipart upload needs a "file" part (after the parameter fields)`))
				return
			}
			if err != nil {
				s.writeUploadError(w, body, err)
				return
			}
			if part.FormName() == "file" {
				data = part
				break
			}
			val, err := io.ReadAll(io.LimitReader(part, 1<<10))
			if err != nil {
				s.writeUploadError(w, body, err)
				return
			}
			if err := params.set(part.FormName(), string(val)); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
	} else {
		q := r.URL.Query()
		for _, key := range []string{"format", "task", "name", "label_col", "dim", "classes", "max_line_bytes"} {
			if v := q.Get(key); v != "" {
				if err := params.set(key, v); err != nil {
					writeError(w, http.StatusBadRequest, err)
					return
				}
			}
		}
		data = body
	}

	opt, err := params.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	h, err := s.store.Ingest(data, opt)
	if err != nil {
		s.writeUploadError(w, body, err)
		return
	}
	s.refreshStoreGauges()
	w.Header().Set("Location", "/v1/datasets/"+h.ID)
	writeJSON(w, http.StatusCreated, NewDatasetInfo(h))
}

// writeUploadError maps a mid-stream failure: an oversized body surfaces
// as 413 — whether the typed MaxBytesError survived the reader chain or
// the tracker caught it — everything else (parse errors included) as 400.
func (s *Server) writeUploadError(w http.ResponseWriter, body *cappedBody, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || body.exceeded {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: upload exceeds %d bytes", s.cfg.MaxUploadBytes))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// cappedBody wraps the MaxBytesReader-limited request body and records
// whether the cap ever fired, regardless of how intermediate readers
// rewrite the error.
type cappedBody struct {
	rc       io.ReadCloser
	exceeded bool
}

func (c *cappedBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			c.exceeded = true
		}
	}
	return n, err
}

func (c *cappedBody) Close() error { return c.rc.Close() }

// ingestParams collects the textual upload parameters from either encoding
// before they are turned into store.IngestOptions.
type ingestParams struct {
	format, task, name         string
	labelCol                   *int
	dim, classes, maxLineBytes int
}

func (p *ingestParams) set(key, val string) error {
	atoi := func() (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("serve: upload parameter %s=%q is not an integer", key, val)
		}
		return n, nil
	}
	var err error
	switch key {
	case "format":
		p.format = val
	case "task":
		p.task = val
	case "name":
		p.name = val
	case "label_col":
		var n int
		if n, err = atoi(); err == nil {
			p.labelCol = &n
		}
	case "dim":
		p.dim, err = atoi()
	case "classes":
		p.classes, err = atoi()
	case "max_line_bytes":
		p.maxLineBytes, err = atoi()
	default:
		return fmt.Errorf("serve: unknown upload parameter %q", key)
	}
	return err
}

func (p *ingestParams) options() (store.IngestOptions, error) {
	if p.format == "" {
		return store.IngestOptions{}, errors.New("serve: upload needs format=csv|libsvm")
	}
	if p.task == "" {
		return store.IngestOptions{}, errors.New("serve: upload needs task=regression|binary|multiclass|unsupervised")
	}
	task, err := dataset.ParseTask(p.task)
	if err != nil {
		return store.IngestOptions{}, err
	}
	return store.IngestOptions{
		Name:         p.name,
		Format:       p.format,
		Task:         task,
		NumClasses:   p.classes,
		LabelCol:     p.labelCol,
		Dim:          p.dim,
		MaxLineBytes: p.maxLineBytes,
	}, nil
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	ids := s.store.List()
	list := DatasetList{Datasets: make([]StoredDataset, 0, len(ids))}
	for _, id := range ids {
		h, err := s.store.Get(id)
		if err != nil {
			continue // deleted between List and Get
		}
		list.Datasets = append(list.Datasets, NewDatasetInfo(h))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	h, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, NewDatasetInfo(h))
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// A dataset referenced by queued or running work must not be pulled out
	// from under it: the job would fail mid-task with a read error. 409
	// names the jobs so the client can cancel or wait them out. (A job
	// admitted between this check and the delete loses the race and fails
	// when it resolves the id — the honest outcome either way.)
	if jobs := s.queue.ActiveDatasetJobs(id); len(jobs) > 0 {
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: fmt.Sprintf("serve: dataset %s is referenced by active jobs: %s", id, strings.Join(jobs, ", ")),
			Jobs:  jobs,
		})
		return
	}
	if err := s.store.Delete(id); err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, store.ErrNotFound) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	s.cache.Drop(cluster.DatasetKeyPrefix(id)) // no cached handle outlives the files
	s.refreshStoreGauges()
	w.WriteHeader(http.StatusNoContent)
}

// refreshStoreGauges resets the dataset gauges after any store mutation.
func (s *Server) refreshStoreGauges() {
	s.m.DatasetsStored.Set(int64(s.store.Len()))
	s.m.DatasetBytes.Set(s.store.DiskBytes())
	rows, nnz := s.store.SparseStats()
	s.m.DatasetsSparseRows.Set(rows)
	s.m.DatasetSparseNNZ.Set(nnz)
}
