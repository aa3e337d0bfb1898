package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"blinkml/internal/obs"
)

// maxProtocolBody caps coordinator-side protocol request bodies. Trial
// completions carry parameter vectors and phase diagnostics, never rows, so
// this is generous.
const maxProtocolBody = 256 << 20

// maxLeaseWait caps one long-poll; workers re-poll in a loop.
const maxLeaseWait = 30 * time.Second

// Mount registers the coordinator's HTTP protocol on mux under /v1/cluster.
// Every route runs through the shared obs HTTP middleware, so the cluster
// control plane shows up in the blinkml_http_* per-endpoint series next to
// the public API. (Lease long-polls sit inflight for up to maxLeaseWait by
// design — their latency histogram reflects the poll, not slowness.)
func (c *Coordinator) Mount(mux *http.ServeMux) {
	hm := obs.SharedHTTP()
	handle := func(pattern string, h http.HandlerFunc) {
		route := pattern[strings.IndexByte(pattern, ' ')+1:]
		mux.Handle(pattern, hm.Wrap(route, h))
	}
	handle("POST /v1/cluster/register", c.handleRegister)
	handle("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	handle("POST /v1/cluster/lease", c.handleLease)
	handle("POST /v1/cluster/complete", c.handleComplete)
	handle("GET /v1/cluster/datasets/{id}", c.handleDatasetExport)
	handle("GET /v1/cluster/status", c.handleStatus)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readProtoJSON(w, r, &req) {
		return
	}
	resp, err := c.Register(req)
	if err != nil {
		writeProtoError(w, err)
		return
	}
	writeProtoJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readProtoJSON(w, r, &req) {
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		writeProtoError(w, err)
		return
	}
	writeProtoJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readProtoJSON(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	resp, err := c.Lease(r.Context(), req.WorkerID, wait)
	if err != nil {
		writeProtoError(w, err)
		return
	}
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if resp.Spec.Trace != "" {
		w.Header().Set(obs.TraceHeader, resp.Spec.Trace)
	}
	writeProtoJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readProtoJSON(w, r, &req) {
		return
	}
	if err := c.Complete(req); err != nil {
		writeProtoError(w, err)
		return
	}
	writeProtoJSON(w, http.StatusOK, struct{}{})
}

// handleDatasetExport streams a dataset bundle to a worker.
func (c *Coordinator) handleDatasetExport(w http.ResponseWriter, r *http.Request) {
	if c.store == nil {
		writeProtoJSON(w, http.StatusNotFound, protoError{Error: "cluster: coordinator has no dataset store"})
		return
	}
	h, err := c.store.Get(r.PathValue("id"))
	if err != nil {
		writeProtoJSON(w, http.StatusNotFound, protoError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	c.m.DatasetsExported.Add(1)
	// The status line is out after the first byte; a mid-stream error can
	// only truncate, which the importer's checksum verification catches.
	_ = h.ExportTo(w)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeProtoJSON(w, http.StatusOK, c.Status())
}

// protoError is the protocol's uniform error body.
type protoError struct {
	Error string `json:"error"`
}

func readProtoJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProtocolBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeProtoJSON(w, http.StatusBadRequest, protoError{Error: fmt.Sprintf("cluster: bad request body: %v", err)})
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeProtoJSON(w, http.StatusBadRequest, protoError{Error: "cluster: bad request body: unexpected data after JSON value"})
		return false
	}
	return true
}

func writeProtoJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeProtoError maps coordinator errors to protocol statuses: unknown
// workers and tasks are 404 (the worker should re-register / drop the
// task), stale leases 409 (the completion is discarded), a closed
// coordinator 503, anything else 400.
func writeProtoError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownTask):
		status = http.StatusNotFound
	case errors.Is(err, ErrStaleLease):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeProtoJSON(w, status, protoError{Error: err.Error()})
}
