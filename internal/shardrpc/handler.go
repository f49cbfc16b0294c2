package shardrpc

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"
)

// maxLeaseWait caps a lease long-poll so a stuck worker connection cannot
// pin a handler goroutine indefinitely.
const maxLeaseWait = 30 * time.Second

// maxBodyBytes caps a protocol request body. The largest valid one is a
// complete with at most 64 strata, a few KiB.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's HTTP handler, serving the protocol
// under PathPrefix:
//
//	POST {prefix}register    {name}                          -> {worker_id, ttl_ms}
//	POST {prefix}lease       {worker_id, wait_ms}            -> 200 lease | 204 none
//	POST {prefix}heartbeat   {worker_id, task_id, gen}       -> 200 | 410 lease lost
//	POST {prefix}complete    {worker_id, task_id, gen, counts} -> 200 | 409 stale | 422 garbage
//	POST {prefix}deregister  {worker_id}                     -> 200
//	GET  {prefix}protocol/{key}                              -> store-encoded protocol bytes
//
// Non-2xx responses carry a JSON {"error": ...} body; 409/422/410 map to
// ErrStaleCompletion, ErrGarbageCompletion and ErrLeaseLost on the client.
// A malformed body is 400 and one over maxBodyBytes is 413.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !readJSON(w, r, &req) {
			return
		}
		id, ttl, err := c.Register(req.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, registerResponse{WorkerID: id, TTLMs: ttl.Milliseconds()})
	})
	mux.HandleFunc(PathPrefix+"lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitMs) * time.Millisecond
		if wait > maxLeaseWait {
			wait = maxLeaseWait
		}
		lease, err := c.Lease(req.WorkerID, wait)
		if err != nil {
			writeError(w, err)
			return
		}
		if lease == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, lease)
	})
	mux.HandleFunc(PathPrefix+"heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.WorkerID, req.TaskID, req.Gen); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc(PathPrefix+"complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !readJSON(w, r, &req) {
			return
		}
		dup, err := c.Complete(req.WorkerID, req.TaskID, req.Gen, req.Counts)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, completeResponse{Accepted: true, Duplicate: dup})
	})
	mux.HandleFunc(PathPrefix+"deregister", func(w http.ResponseWriter, r *http.Request) {
		var req deregisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		c.Deregister(req.WorkerID)
		writeJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc(PathPrefix+"protocol/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		key := strings.TrimPrefix(r.URL.Path, PathPrefix+"protocol/")
		if c.cfg.Protocol == nil || key == "" {
			http.NotFound(w, r)
			return
		}
		data, err := c.cfg.Protocol(key)
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	return mux
}

// readJSON decodes a POSTed JSON body of at most maxBodyBytes, writing the
// error response itself on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		status := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps a protocol error to its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorker):
		status = http.StatusNotFound
	case errors.Is(err, ErrLeaseLost):
		status = http.StatusGone
	case errors.Is(err, ErrStaleCompletion):
		status = http.StatusConflict
	case errors.Is(err, ErrGarbageCompletion):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
