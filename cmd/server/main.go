// Command server exposes the dftsp pipeline as an HTTP JSON service. It is
// backed by dftsp.Service: SAT-synthesized protocols are cached in memory
// keyed by their canonical options, concurrent identical requests are
// coalesced into one synthesis, and estimation jobs run on a bounded worker
// pool sized to the machine.
//
// With -store-dir the cache becomes persistent: every synthesized protocol
// is also written to a content-addressed on-disk store (see
// docs/protocol-format.md), the store is preloaded into memory at boot, and
// lookups fall through memory → disk → SAT solve — so a restarted server
// serves every previously synthesized protocol from disk without running
// the solver. Pre-warm a store directory offline with cmd/precompute and
// ship it with the server.
//
// Every handler works off the request context: a client that hangs up (or a
// per-request timeout that fires, see -timeout) cancels the in-flight SAT
// solving and Monte-Carlo sampling instead of letting them run to
// completion. Errors map onto HTTP statuses through the dftsp error
// taxonomy: ErrBadOptions → 400, ErrSynthesis/ErrCertification → 422,
// cancellation/timeout → 503, anything else → 500. The process shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests.
//
// Endpoints:
//
//	POST /synthesize  {"code":"Steane","prep":"opt","qasm":true}
//	POST /estimate    {"options":{"code":"Steane"},"estimate":{"rates":[1e-3],"mc_shots":10000}}
//	POST /batch       {"items":[{"code":"Steane"},{"code":"Shor"}]}  → NDJSON event stream
//	GET  /protocols   protocols servable without synthesis (memory and store)
//	GET  /stats       cache, store and worker-pool counters (JSON)
//	GET  /metrics     the same counters plus latency histograms, queue depths
//	                  and HTTP/admission metrics, in Prometheus text format
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 while booting or draining)
//
// Requests to a known route with the wrong method are rejected with 405 and
// an Allow header. Every response echoes (or generates) an X-Request-Id,
// and each request is access-logged with method, path, status, duration and
// whether admission control shed it. /stats and /metrics are served with
// Cache-Control: no-store. /stats and /metrics read the same telemetry
// registry — they cannot disagree.
//
// Admission control (see docs/operations.md): -rate-limit imposes a
// per-client token-bucket limit, keyed by X-Client-Id or the remote
// address; -max-inflight and -max-queue bound each work endpoint
// (/synthesize, /estimate, /batch, /jobs) to that many executing plus
// queued requests. Traffic beyond either budget is shed with 429 and a
// Retry-After header instead of stacking goroutines. Probes (/healthz,
// /readyz) and /metrics scrapes are never rate-limited or queued.
//
// With -store-ro the server mounts pre-warmed read-only protocol catalogs
// (comma-separated directories, probed in order) under the optional
// writable -store-dir overlay: catalog protocols are served with zero
// store writes, while fresh syntheses land in the overlay (or stay
// memory-only when -store-dir is absent).
//
// With -jobs-dir the server additionally exposes persistent estimation
// jobs (see docs/job-format.md): sampling runs in the background as small
// checkpointed shards, survives restarts, and resumes automatically at the
// next boot. -jobs-dir may equal -store-dir; job files and protocol
// entries coexist in one directory.
//
//	POST /jobs               {"options":...,"estimate":...}  → 202 + job status
//	GET  /jobs               all known jobs (running and on disk)
//	GET  /jobs/{id}          one job's status
//	GET  /jobs/{id}/events   NDJSON: one status line, then progress events
//	POST /jobs/{id}/cancel   stop a running job, keeping its checkpoints
//
// With -workers-addr the server additionally listens for remote shard
// workers (cmd/worker, see docs/shard-protocol.md): job shards are leased
// to connected workers under TTL'd, generation-fenced leases while the
// local pool races for the same shards, so N workers finish a job
// bit-identical to one process and a dead worker's shard is re-leased
// automatically. /readyz and /jobs/{id} report the connected-worker and
// outstanding-lease counts.
//
// On SIGINT/SIGTERM the server flips /readyz to 503, checkpoints and
// pauses running jobs (they resume on the next boot), then drains in-flight
// requests.
//
// /estimate also accepts adaptive sampling options — "target_rse" (relative
// standard error to stop at), "max_shots" (per-rate cap, default 1e7),
// "mc_min_rate" (with method "direct" the adaptive default is 1e-2: points
// that cannot observe a failure would always burn the whole cap; "auto" and
// "rare" sample every rate) and "method" ("auto" default: picks per rate
// between direct Monte-Carlo and the rare-event conditional estimator
// (>= 2 faults per shot when no single fault fails, else >= 1), which
// resolves logical rates far below 1/max_shots; "direct" and "rare" force
// their method). Every sampled point of the response carries "shots",
// "rse", "ci_lo" and "ci_hi" (95% Wilson interval), "method" (the method
// that ran), "effective_samples" (Kish effective sample size under the
// rare-event post-stratification weights) and "weight_variance" alongside
// the "mc" estimate, even when those values are legitimately zero, plus
// "min_faults" when the rare-event estimator conditioned on two faults;
// unsampled points carry only "p" and "pl".
//
// Both /estimate and /jobs accept per-location-class noise model options:
// "bias_2q" and "bias_meas" scale the two-qubit and measurement fault rates
// relative to the one-qubit rate, and "eta" Z-biases the two-qubit operator
// menu (weight eta per pure-Z slot). All default to 1 — the paper's uniform
// E1_1 model; a biased /estimate response echoes the model under
// "noise_bias", and a biased job spec carries the fields in its content
// address (a spelled-out 1 normalizes away, so it cannot split the job
// identity).
//
// /stats additionally reports estimation throughput: "shots_sampled" is
// the cumulative Monte-Carlo shot count across all estimation jobs and
// "shots_per_sec" an exponentially weighted moving average of per-job
// sampling throughput.
//
// The /batch response is application/x-ndjson: one JSON event per line,
// flushed as items progress (queued → synthesizing → done/error; items
// cancelled while still queued skip synthesizing), each carrying the item
// index, status and — on completion — code, params, summary, cache_hit
// and elapsed_ms (error detail on failure).
//
// Usage:
//
//	server -addr :8080 -workers 8 -timeout 5m
//	server -store-dir /var/lib/dftsp/protocols
//	server -store-dir /var/lib/dftsp -jobs-dir /var/lib/dftsp
//	server -store-ro /srv/catalog-v1,/srv/catalog-base
//	server -rate-limit 10 -max-inflight 8 -max-queue 32
//	DFTSP_WORKERS=8 server
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/dftsp"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "Monte-Carlo workers per estimation job (0: DFTSP_WORKERS or CPU count)")
		timeout     = flag.Duration("timeout", 10*time.Minute, "per-request timeout (0: none)")
		storeDir    = flag.String("store-dir", "", "persistent protocol store directory, preloaded at boot (empty: memory-only)")
		storeRO     = flag.String("store-ro", "", "comma-separated read-only protocol catalogs, probed in order under the -store-dir overlay")
		jobsDir     = flag.String("jobs-dir", "", "persistent estimation-job directory; enables the /jobs API (empty: disabled)")
		workersAddr = flag.String("workers-addr", "", "listen address for remote shard workers (cmd/worker); job shards are leased to connected workers (empty: local pool only)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client requests per second admitted (0: unlimited)")
		rateBurst   = flag.Int("rate-burst", 0, "per-client token-bucket burst (0: 2x rate-limit, at least 1)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent requests per work endpoint (0: unbounded)")
		maxQueue    = flag.Int("max-queue", 0, "requests queued per work endpoint beyond max-inflight before shedding with 429")
	)
	flag.Parse()

	var roDirs []string
	for _, dir := range strings.Split(*storeRO, ",") {
		if dir = strings.TrimSpace(dir); dir != "" {
			roDirs = append(roDirs, dir)
		}
	}

	svc := dftsp.NewService(*workers)
	if *storeDir != "" || len(roDirs) > 0 {
		if err := svc.AttachStoreTiers(*storeDir, roDirs...); err != nil {
			fmt.Fprintln(os.Stderr, "server:", err)
			os.Exit(1)
		}
		loaded, skipped, err := svc.WarmStart(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "server: warm start:", err)
			os.Exit(1)
		}
		log.Printf("dftsp server warm-started %d protocols from %s (%d read-only catalogs, %d unreadable entries skipped)",
			loaded, svc.StoreDir(), len(roDirs), skipped)
	}
	if *jobsDir != "" {
		if err := svc.AttachJobs(*jobsDir, *workersAddr); err != nil {
			fmt.Fprintln(os.Stderr, "server:", err)
			os.Exit(1)
		}
		// A resume failure (e.g. a job whose protocol is gone) must not
		// keep the server down; the affected jobs simply stay paused.
		resumed, err := svc.ResumeJobs()
		if err != nil {
			log.Printf("dftsp server: resuming jobs: %v", err)
		}
		log.Printf("dftsp server resumed %d unfinished jobs from %s", len(resumed), *jobsDir)
		if rs, ok := svc.JobRemote(); ok {
			log.Printf("dftsp server leasing job shards to remote workers on %s", rs.Addr)
		}
	}
	srv := newServer(svc, serverConfig{
		timeout:     *timeout,
		rateLimit:   *rateLimit,
		rateBurst:   *rateBurst,
		maxInflight: *maxInflight,
		maxQueue:    *maxQueue,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("dftsp server listening on %s", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Printf("dftsp server shutting down")
	// Drain order: stop admitting (readyz 503), checkpoint and pause jobs
	// (closing their event streams, so /jobs/{id}/events handlers return),
	// then drain the remaining in-flight requests.
	srv.setReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.ShutdownJobs(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "server: job shutdown:", err)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "server: shutdown:", err)
		os.Exit(1)
	}
}

// serverConfig carries the serving-envelope knobs of newServer. The zero
// value disables every envelope feature (no timeout, no rate limiting, no
// queue bounds) — the configuration most tests run under.
type serverConfig struct {
	timeout     time.Duration // per-request deadline; 0 disables
	rateLimit   float64       // per-client requests/sec; 0 disables
	rateBurst   int           // token-bucket burst; 0 selects the default
	maxInflight int           // concurrent requests per work endpoint; 0 disables
	maxQueue    int           // waiters per work endpoint beyond maxInflight
	accessLog   *log.Logger   // access-log destination; nil selects log.Default()
}

// server routes HTTP requests onto a dftsp.Service behind the serving
// envelope: per-client rate limiting, bounded per-endpoint admission
// queues, request-ID echo, access logging and HTTP telemetry.
type server struct {
	svc     *dftsp.Service
	mux     *http.ServeMux
	timeout time.Duration

	limiter   *clientLimiter            // nil: no rate limiting
	queues    map[string]*endpointQueue // per work endpoint; nil entries admit all
	accessLog *log.Logger

	httpRequests *telemetry.CounterVec   // labels: endpoint, code
	httpSeconds  *telemetry.HistogramVec // label: endpoint
	httpInflight map[string]*telemetry.Gauge
	httpShed     *telemetry.CounterVec // labels: endpoint, reason

	// hits holds the encoded body of each memory hit by hitKey ([]byte),
	// written by the first hit (handleSynthesize).
	hits sync.Map

	// ready backs /readyz: true once the server can take traffic, false
	// again while it drains. newServer starts ready because main attaches
	// stores, warm-starts and resumes jobs before wiring the routes.
	ready atomic.Bool
}

// workEndpoints are the admission-queued endpoint labels: the routes that
// run SAT solving or Monte-Carlo sampling and so must never stack unbounded
// goroutines.
var workEndpoints = []string{"synthesize", "estimate", "batch", "jobs"}

// newServer wires the routes and the serving envelope. cfg.timeout, when
// positive, bounds every request's context, so a stuck client cannot pin
// SAT work forever. The /jobs API is registered only when the service has a
// job store attached; without one the routes simply 404. Every route is
// registered with its method, so a wrong-method request gets the mux's 405
// with an Allow header.
func newServer(svc *dftsp.Service, cfg serverConfig) *server {
	s := &server{
		svc:       svc,
		mux:       http.NewServeMux(),
		timeout:   cfg.timeout,
		limiter:   newClientLimiter(cfg.rateLimit, cfg.rateBurst),
		queues:    map[string]*endpointQueue{},
		accessLog: cfg.accessLog,
	}
	if s.accessLog == nil {
		s.accessLog = log.Default()
	}
	for _, ep := range workEndpoints {
		s.queues[ep] = newEndpointQueue(cfg.maxInflight, cfg.maxQueue)
	}

	reg := svc.Metrics()
	s.httpRequests = reg.CounterVec("dftsp_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.httpSeconds = reg.HistogramVec("dftsp_http_request_seconds",
		"HTTP request wall time, by endpoint.", telemetry.LatencyBuckets, "endpoint")
	s.httpShed = reg.CounterVec("dftsp_http_shed_total",
		"Requests shed with 429 by admission control, by endpoint and reason (ratelimit or queue).",
		"endpoint", "reason")
	s.httpInflight = map[string]*telemetry.Gauge{}
	for _, ep := range workEndpoints {
		s.httpInflight[ep] = reg.Gauge("dftsp_http_inflight_"+ep,
			"Requests currently executing on the "+ep+" endpoint.")
	}
	reg.GaugeFunc("dftsp_go_goroutines",
		"Goroutines currently alive in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	s.ready.Store(true)
	s.mux.HandleFunc("POST /synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if svc.JobsDir() != "" {
		s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /jobs", s.handleJobList)
		s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
		s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
		s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	}
	return s
}

// setReady flips the /readyz readiness state.
func (s *server) setReady(ready bool) { s.ready.Store(ready) }

// endpointOf maps a request path onto its metrics/admission label. All
// /jobs/... routes share one label (and one admission queue): they feed
// the same worker pool.
func endpointOf(path string) string {
	switch {
	case path == "/synthesize", path == "/estimate", path == "/batch",
		path == "/protocols", path == "/stats", path == "/metrics",
		path == "/healthz", path == "/readyz":
		return strings.TrimPrefix(path, "/")
	case path == "/jobs" || strings.HasPrefix(path, "/jobs/"):
		return "jobs"
	default:
		return "other"
	}
}

// exempt reports whether an endpoint bypasses rate limiting and admission
// queues: probes must stay green on an overloaded server (or the
// orchestrator kills it for being busy) and metrics scrapes are how the
// operator sees the overload.
func exempt(endpoint string) bool {
	return endpoint == "healthz" || endpoint == "readyz" || endpoint == "metrics"
}

// ServeHTTP is the serving envelope around the mux: request timeout,
// request-ID echo, per-client rate limiting, bounded per-endpoint admission
// queues, HTTP metrics and one structured access-log line per request.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	start := time.Now()
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = newRequestID()
	}
	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set("X-Request-Id", reqID)
	endpoint := endpointOf(r.URL.Path)
	client := clientID(r)
	shed := "-"

	switch {
	case exempt(endpoint):
		s.mux.ServeHTTP(sw, r)
	default:
		if retry, ok := s.limiter.allow(client, start); !ok {
			shed = "ratelimit"
			s.httpShed.With(endpoint, shed).Inc()
			sw.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
			writeError(sw, http.StatusTooManyRequests,
				fmt.Errorf("rate limit exceeded; retry after %s", retry))
			break
		}
		release, ok := s.queues[endpoint].admit(r.Context())
		if !ok {
			shed = "queue"
			s.httpShed.With(endpoint, shed).Inc()
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusTooManyRequests,
				fmt.Errorf("endpoint %s is at capacity; retry shortly", endpoint))
			break
		}
		defer release()
		if g := s.httpInflight[endpoint]; g != nil {
			g.Add(1)
			defer g.Add(-1)
		}
		s.mux.ServeHTTP(sw, r)
	}

	elapsed := time.Since(start)
	code := sw.code
	if code == 0 {
		code = http.StatusOK // handler wrote nothing; net/http will send 200
	}
	s.httpRequests.With(endpoint, strconv.Itoa(code)).Inc()
	s.httpSeconds.With(endpoint).Observe(elapsed.Seconds())
	s.accessLog.Printf("http method=%s path=%s status=%d dur_ms=%d id=%s client=%s shed=%s",
		r.Method, r.URL.Path, code, elapsed.Milliseconds(), reqID, client, shed)
}

// newRequestID mints a 16-hex-char random request ID for requests that
// arrive without one.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusOf maps an error from the dftsp v2 taxonomy onto an HTTP status.
// Cancellation is checked first: a timed-out request wrapped in ErrSynthesis
// context must still surface as 503, not as a caller mistake.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, dftsp.ErrJobNotFound):
		return http.StatusNotFound
	case errors.Is(err, dftsp.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, dftsp.ErrSynthesis), errors.Is(err, dftsp.ErrCertification):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// synthesizeRequest is a dftsp.Options plus export switches; the options
// fields are inlined in the JSON body.
type synthesizeRequest struct {
	dftsp.Options
	QASM bool `json:"qasm,omitempty"` // include the OpenQASM 2.0 export
}

// synthesizeResponse reports the synthesized protocol.
type synthesizeResponse struct {
	Code     string `json:"code"`
	Params   string `json:"params"`
	Summary  string `json:"summary"`
	Metrics  string `json:"metrics"`
	Describe string `json:"describe"`
	CacheHit bool   `json:"cache_hit"`
	QASM     string `json:"qasm,omitempty"`
}

// hitKey names one stored hit body: a cached protocol and the QASM switch.
type hitKey struct {
	p    *dftsp.Protocol
	qasm bool
}

// handleSynthesize answers a hit with the bytes encoded at the protocol's
// first hit with the same QASM switch; a miss is encoded afresh. The
// service never drops a completed protocol, so s.hits holds at most two
// bodies per cached protocol.
func (s *server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req synthesizeRequest
	if !decodePost(w, r, &req) {
		return
	}
	p, hit, err := s.svc.Protocol(r.Context(), req.Options)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	key := hitKey{p, req.QASM}
	if hit {
		if body, ok := s.hits.Load(key); ok {
			writeBody(w, http.StatusOK, body.([]byte))
			return
		}
	}
	resp := synthesizeResponse{
		Code:     p.CodeName(),
		Params:   p.CodeParams(),
		Summary:  p.Summary(),
		Metrics:  p.MetricsRow(),
		Describe: p.Describe(),
		CacheHit: hit,
	}
	if req.QASM {
		q, err := p.QASM()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.QASM = q
	}
	body, err := encodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if hit {
		s.hits.LoadOrStore(key, body)
	}
	writeBody(w, http.StatusOK, body)
}

// estimateRequest selects a protocol and the estimation parameters.
type estimateRequest struct {
	Options  dftsp.Options         `json:"options"`
	Estimate dftsp.EstimateOptions `json:"estimate"`
}

// estimateResponse wraps the estimate with protocol identification.
type estimateResponse struct {
	Code     string `json:"code"`
	Params   string `json:"params"`
	CacheHit bool   `json:"cache_hit"`
	dftsp.EstimateResult
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if !decodePost(w, r, &req) {
		return
	}
	// Reject unusable estimation parameters before paying for synthesis.
	if err := req.Estimate.Validate(); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	p, hit, err := s.svc.Protocol(r.Context(), req.Options)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	res, err := s.svc.EstimateProtocol(r.Context(), p, req.Estimate)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse{
		Code:           p.CodeName(),
		Params:         p.CodeParams(),
		CacheHit:       hit,
		EstimateResult: res,
	})
}

// batchRequest is a list of synthesis jobs processed as one streaming
// request.
type batchRequest struct {
	Items []dftsp.Options `json:"items"`
}

// maxBatchItems caps one request's fan-out so a single client cannot queue
// unbounded SAT work.
const maxBatchItems = 64

// handleBatch streams per-item NDJSON progress events while the service
// synthesizes the batch. The 200 status and the headers go out with the
// first event, so item failures are reported in-band as "error" events
// rather than through the response status.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodePost(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: batch needs at least one item", dftsp.ErrBadOptions))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: batch of %d items exceeds the limit of %d", dftsp.ErrBadOptions, len(req.Items), maxBatchItems))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// SynthesizeBatch serializes onEvent calls, so no extra locking here.
	s.svc.SynthesizeBatch(r.Context(), req.Items, func(ev dftsp.BatchEvent) {
		if err := enc.Encode(ev); err != nil {
			return // client gone; ctx cancellation tears the batch down
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// protocolsResponse lists every protocol servable without synthesis.
type protocolsResponse struct {
	Count     int                  `json:"count"`
	Protocols []dftsp.ProtocolInfo `json:"protocols"`
}

// handleProtocols reports which protocols the service can serve without
// invoking the SAT solver: completed in-memory cache entries and, when the
// server runs with -store-dir, entries of the persistent store.
func (s *server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	infos, err := s.svc.Protocols()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, protocolsResponse{Count: len(infos), Protocols: infos})
}

// handleStats reports the service counters as JSON. The numbers are read
// from the same telemetry registry /metrics exposes, so the two views
// cannot disagree; no-store keeps intermediaries from serving stale
// counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

// handleMetrics serves the full telemetry registry in Prometheus text
// exposition format 0.0.4.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.svc.Metrics().Expose(w); err != nil {
		log.Printf("server: exposing metrics: %v", err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the readiness probe, distinct from the /healthz liveness
// probe: healthz answers "is the process alive", readyz answers "should a
// load balancer route traffic here". It reports 503 while the server drains
// for shutdown (liveness stays green so the orchestrator does not kill a
// draining pod) and describes which persistence layers are attached. With
// remote shard dispatch enabled (-workers-addr) it additionally reports the
// connected-worker and outstanding-lease counts, so an ordered drain can be
// observed to quiesce leases before HTTP drain.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"ok":    s.ready.Load(),
		"store": s.svc.StoreDir() != "",
		"jobs":  s.svc.JobsDir() != "",
	}
	if rs, ok := s.svc.JobRemote(); ok {
		resp["workers_addr"] = rs.Addr
		resp["workers"] = rs.Workers
		resp["leases"] = rs.Leases
		resp["idle"] = rs.Idle
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobSubmit accepts the /estimate request shape and submits it as a
// persistent job, returning 202 with the job's (typically still running)
// status. Resubmitting an identical request attaches to the existing job.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if !decodePost(w, r, &req) {
		return
	}
	st, err := s.svc.SubmitJob(r.Context(), req.Options, req.Estimate)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// jobsResponse lists every known job.
type jobsResponse struct {
	Count int               `json:"count"`
	Jobs  []dftsp.JobStatus `json:"jobs"`
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	all, err := s.svc.Jobs()
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, jobsResponse{Count: len(all), Jobs: all})
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.svc.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobEvents streams a job's progress as application/x-ndjson: the
// first line is the job's full status at subscription time, every following
// line one progress event (see dftsp.JobEvent), flushed as it happens
// (events queued together are flushed together). The stream ends when the
// job settles, the client disconnects, or the server shuts down; events are
// hints and may be dropped under backpressure — the status line and
// GET /jobs/{id} are authoritative.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, stop, err := s.svc.WatchJob(id)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	defer stop()
	st, err := s.svc.Job(id)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // job settled
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil && len(events) == 0 {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobCancel stops a running job (its checkpoints remain; submitting
// the same request later resumes it) and reports the settled status.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.svc.CancelJob(id); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	st, err := s.svc.Job(id)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// decodePost decodes the JSON contract shared by the work endpoints,
// writing the error response itself when the body is malformed. Method
// enforcement lives in the mux's method patterns, which answer wrong-method
// requests with 405 and an Allow header.
func decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		log.Printf("server: encoding response: %v", err)
	}
	writeBody(w, status, body)
}

// encodeJSON returns v as one line of JSON.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeBody sends a JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
