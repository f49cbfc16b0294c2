package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dftsp"
	"repro/internal/sim"
	"repro/internal/store"
)

// bootsPerRun is how many times a workload boots its server; setup_s is
// the median over them. synth-cold boots once per round and tops up to
// this count with boots it does not measure traffic on.
const bootsPerRun = 15

// timing is one timed unit: as measured, and scaled to reference speed by
// the platform reference samples taken just before and after it.
type timing struct {
	raw, scaled time.Duration
}

func (t *timing) add(u timing) {
	t.raw += u.raw
	t.scaled += u.scaled
}

// scaleLike scales a part d of the unit t by the unit's own factor.
func (t timing) scaleLike(d time.Duration) timing {
	return timing{d, time.Duration(float64(d) * float64(t.scaled) / float64(t.raw))}
}

// reqTiming is one request's timing and its kind: the option set, estimate
// kind or job code it asked for.
type reqTiming struct {
	kind string
	timing
}

// outcome is what one HTTP run of a workload measured and checked.
type outcome struct {
	attempted int
	failed    int
	gateErrs  []string

	boots  []timing    // spawn to ready, per boot
	rounds []timing    // one round of the workload's traffic
	reqs   []reqTiming // per request (per job on the job workloads)

	serverMB []float64          // peak RSS per server that carried traffic
	workerMB float64            // peak RSS of the jobs-fleet worker
	counters map[string]float64 // the last server's /metrics at the end

	// Kept for the gates and the traced replay.
	estimates map[int]estimateResponse // round-0 /estimate responses by request index
	firstJob  *dftsp.JobStatus         // final status of job 0
}

// check records one standalone correctness gate as an attempted item.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.reject(format, args...)
	}
}

// reject marks an already attempted item (a request whose answer is wrong)
// as failed.
func (o *outcome) reject(format string, args ...any) {
	o.failed++
	if len(o.gateErrs) < 20 {
		o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
	}
}

// request records one request's transport result: a transport error or a
// non-2xx status counts as failed.
func (o *outcome) request(status int, err error) bool {
	o.attempted++
	if err != nil || status < 200 || status > 299 {
		o.reject("request failed: status %d, %v", status, err)
		return false
	}
	return true
}

// workload is one run of one workload against freshly booted binaries.
type workload struct {
	ctx     context.Context
	e       *env
	name    string
	seed    int64
	seconds float64 // sets the amount of traffic (see units)
	set     workloadSet
	hc      *http.Client
	ref     *platformRef

	last time.Duration // the latest reference sample
}

// Rounds per second of -seconds. The traffic of a run is fixed by -seconds
// alone, so every commit answers exactly the same requests; at the speed of
// the commit that defined the benchmark a run sends about -seconds of it.
const (
	coldRoundsPerSecond     = 0.3 // 13 cold syntheses, 3.5–6 s
	hitRoundsPerSecond      = 10  // 2 × hitRoundLen memory hits, ~0.1 s
	estimateRoundsPerSecond = 1   // 9 estimates, ~1 s
	jobRoundsPerSecond      = 2   // one job per job code, ~0.45 s
)

// units returns the number of rounds a workload sends at perSecond rounds
// per second of -seconds, at least one.
func (w *workload) units(perSecond float64) int {
	return max(1, int(math.Round(w.seconds*perSecond)))
}

// refSettle caps the pause that lets the server finish the work a unit
// left behind (its garbage collection, say) before the reference is
// sampled, so the reference measures the machine, not the program's tail.
// The pause is a twentieth of the unit, so short units stay cheap.
const refSettle = 20 * time.Millisecond

// timed runs f and returns its timing, taking the reference sample that
// closes this unit and opens the next.
func (w *workload) timed(f func()) timing {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	before := w.last
	time.Sleep(min(refSettle, d/20))
	w.last = w.ref.sample()
	return timing{d, scale(d, before, w.last)}
}

// boot boots a server and times it like any other unit.
func (w *workload) boot(spec bootSpec, o *outcome) (*server, error) {
	var s *server
	var d time.Duration
	var err error
	t := w.timed(func() { s, d, err = w.e.boot(w.ctx, spec) })
	if err != nil {
		return nil, err
	}
	// Only the spawn-to-ready part of the unit is set-up time.
	o.boots = append(o.boots, t.scaleLike(d))
	return s, nil
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}

// post sends a JSON body and returns the status and response body.
func (w *workload) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postJSON marshals in, posts it and decodes a 2xx answer into out.
func (w *workload) postJSON(url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	status, data, err := w.post(url, body)
	if err == nil && status >= 200 && status <= 299 && out != nil {
		err = json.Unmarshal(data, out)
	}
	return status, err
}

func (w *workload) getJSON(url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the server's /metrics. Each sample is keyed by its full
// name with labels, and every metric name also carries the sum over its
// labels.
func (w *workload) scrape(base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		full := line[:i]
		out[full] = v
		if name, _, ok := strings.Cut(full, "{"); ok {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// bootN boots the workload's server bootsPerRun times, keeping the last.
func (w *workload) bootN(spec bootSpec, o *outcome) (*server, error) {
	for i := 0; ; i++ {
		s, err := w.boot(spec, o)
		if err != nil {
			return nil, err
		}
		if i == bootsPerRun-1 {
			return s, nil
		}
		if _, _, err := s.stop(); err != nil {
			return nil, err
		}
	}
}

// finish scrapes the server's counters and stops it.
func (w *workload) finish(s *server, o *outcome) error {
	c, err := w.scrape(s.base)
	if err != nil {
		s.stop()
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	o.counters = c
	serverMB, workerMB, err := s.stop()
	o.serverMB = append(o.serverMB, serverMB)
	o.workerMB = workerMB
	return err
}

// synthesizeResponse is the /synthesize answer.
type synthesizeResponse struct {
	Code     string `json:"code"`
	Params   string `json:"params"`
	Summary  string `json:"summary"`
	Metrics  string `json:"metrics"`
	Describe string `json:"describe"`
	CacheHit bool   `json:"cache_hit"`
	QASM     string `json:"qasm,omitempty"`
}

// estimateResponse is the /estimate answer.
type estimateResponse struct {
	Code     string `json:"code"`
	Params   string `json:"params"`
	CacheHit bool   `json:"cache_hit"`
	dftsp.EstimateResult
}

// synthCold is the Table I path: every round boots a server on an empty
// store and requests each option set once, in a seeded order, so every
// request runs the SAT synthesis and writes the protocol back.
func (w *workload) synthCold(o *outcome) error {
	opts := w.set.options
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	coldSpec := func() (bootSpec, string, error) {
		dir, err := w.e.dir("store")
		return bootSpec{args: []string{"-store-dir", dir, "-workers", "2"}}, dir, err
	}
	checked := map[string][]byte{} // .dfp file -> bytes that passed the FT check
	for round := 0; round < w.units(coldRoundsPerSecond); round++ {
		spec, dir, err := coldSpec()
		if err != nil {
			return err
		}
		s, err := w.boot(spec, o)
		if err != nil {
			return err
		}
		var rt timing
		for _, k := range coldOrder(w.seed, round, len(opts)) {
			var resp synthesizeResponse
			var status int
			t := w.timed(func() { status, err = w.postJSON(s.base+"/synthesize", synthesizeRequest{Options: opts[k]}, &resp) })
			lb := label(opts[k])
			o.reqs = append(o.reqs, reqTiming{lb, t})
			rt.add(t)
			if !o.request(status, err) {
				continue
			}
			switch {
			case resp.Code != opts[k].Code || resp.CacheHit:
				o.reject("%s: answered code %q, cache_hit %v", lb, resp.Code, resp.CacheHit)
			case resp.Metrics != golden[lb]:
				o.reject("%s: metrics row %q differs from the golden %q", lb, resp.Metrics, golden[lb])
			}
		}
		o.rounds = append(o.rounds, rt)
		if err := w.finish(s, o); err != nil {
			return err
		}
		n := float64(len(opts))
		o.check(o.counters["dftsp_service_cache_misses_total"] == n && o.counters["dftsp_service_store_writes_total"] == n,
			"round %d: %v misses and %v store writes, want %v each", round,
			o.counters["dftsp_service_cache_misses_total"], o.counters["dftsp_service_store_writes_total"], n)
		if err := checkStored(dir, len(opts), checked, o); err != nil {
			return err
		}
	}
	for len(o.boots) < bootsPerRun {
		spec, _, err := coldSpec()
		if err != nil {
			return err
		}
		s, err := w.boot(spec, o)
		if err != nil {
			return err
		}
		if _, _, err := s.stop(); err != nil {
			return err
		}
	}
	return nil
}

// checkStored is the write-back gate of synth-cold: every protocol the
// server stored must decode and pass the exhaustive single-fault FT check.
// Bytes identical to a file already checked this run are not re-checked.
func checkStored(dir string, want int, checked map[string][]byte, o *outcome) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.dfp"))
	if err != nil {
		return err
	}
	o.check(len(files) == want, "store holds %d protocols, want %d", len(files), want)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		name := filepath.Base(f)
		if prev, ok := checked[name]; ok && bytes.Equal(prev, data) {
			continue
		}
		p, _, err := store.Decode(data)
		if err == nil {
			err = sim.ExhaustiveFaultCheck(p)
		}
		o.check(err == nil, "stored %s: %v", name, err)
		if err == nil {
			checked[name] = data
		}
	}
	return nil
}

// Shape of synth-hit traffic.
const (
	hitClients  = 2
	hitRoundLen = 1000 // requests per client and round
)

// synthHit is the serving path: two closed-loop clients send relaxed
// spellings of the option sets to a server warm-started from the fixture,
// so every request is a memory hit. A round is hitRoundLen requests from
// each client; the reference is sampled between rounds, with both clients
// idle.
func (w *workload) synthHit(o *outcome) error {
	s, err := w.bootN(bootSpec{args: []string{"-store-ro", w.e.fixture, "-workers", "2"}}, o)
	if err != nil {
		return err
	}
	// Untimed warm-up: connections, the server's lazily built state, GC.
	for round := -1; round >= -w.units(hitRoundsPerSecond)/10; round-- {
		w.hitRound(s.base, w.hitStreams(round), &outcome{})
	}
	w.last = w.ref.sample()
	for round := 0; round < w.units(hitRoundsPerSecond); round++ {
		streams := w.hitStreams(round)
		var reqs []reqTiming
		t := w.timed(func() { reqs = w.hitRound(s.base, streams, o) })
		for _, r := range reqs {
			o.reqs = append(o.reqs, reqTiming{r.kind, t.scaleLike(r.raw)})
		}
		o.rounds = append(o.rounds, t)
	}
	if err := w.finish(s, o); err != nil {
		return err
	}
	o.check(o.counters["dftsp_service_cache_misses_total"] == 0 && o.counters["dftsp_service_store_writes_total"] == 0,
		"synth-hit ran %v syntheses and %v store writes, want 0",
		o.counters["dftsp_service_cache_misses_total"], o.counters["dftsp_service_store_writes_total"])
	return nil
}

// hitClientStream is one client's requests of a round, ready to send.
type hitClientStream struct {
	reqs   []hitRequest
	bodies [][]byte
	kinds  []string
	wants  [][]byte // the prefix each answer must start with
}

// hitStreams generates a round's requests for every client.
func (w *workload) hitStreams(round int) []hitClientStream {
	out := make([]hitClientStream, hitClients)
	for c := range out {
		cs := &out[c]
		cs.reqs = hitStream(w.seed, c, round, hitRoundLen, w.set.options)
		for _, r := range cs.reqs {
			body, _ := json.Marshal(r.body) // plain structs: cannot fail
			opt := w.set.options[r.option]
			cs.bodies = append(cs.bodies, body)
			cs.kinds = append(cs.kinds, label(opt))
			// The answer's first field is the code; a prefix test keeps the
			// client's share of the machine small.
			cs.wants = append(cs.wants, []byte(`{"code":`+strconv.Quote(opt.Code)))
		}
	}
	return out
}

// hitRound runs one round of closed-loop clients, one per stream, and
// returns the raw timing of every request.
func (w *workload) hitRound(base string, streams []hitClientStream, o *outcome) []reqTiming {
	url := base + "/synthesize"
	parts := make([]outcome, len(streams))
	lats := make([][]reqTiming, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, po := &streams[c], &parts[c]
			lats[c] = make([]reqTiming, 0, len(cs.reqs))
			for i := range cs.reqs {
				t0 := time.Now()
				status, data, err := w.post(url, cs.bodies[i])
				lats[c] = append(lats[c], reqTiming{cs.kinds[i], timing{raw: time.Since(t0)}})
				if !po.request(status, err) {
					continue
				}
				if !bytes.HasPrefix(data, cs.wants[i]) || !bytes.Contains(data, []byte(`"cache_hit":true`)) {
					po.reject("synth-hit %q answered %.80s", cs.reqs[i].body.Code, data)
				}
			}
		}()
	}
	wg.Wait()
	var out []reqTiming
	for c, p := range parts {
		o.attempted += p.attempted
		o.failed += p.failed
		o.gateErrs = append(o.gateErrs, p.gateErrs...)
		out = append(out, lats[c]...)
	}
	return out
}

// estimate is the Fig. 4 path: rounds of direct, rare-event and
// stratified-only /estimate requests on a warm server, one seed per round.
func (w *workload) estimate(o *outcome) error {
	s, err := w.bootN(bootSpec{args: []string{"-store-ro", w.e.fixture, "-workers", "2"}}, o)
	if err != nil {
		return err
	}
	o.estimates = map[int]estimateResponse{}
	for round := 0; round < w.units(estimateRoundsPerSecond); round++ {
		var rt timing
		for i, req := range estimateRound(w.seed, round, w.set.estimateCodes) {
			var resp estimateResponse
			var status int
			t := w.timed(func() { status, err = w.postJSON(s.base+"/estimate", req, &resp) })
			o.reqs = append(o.reqs, reqTiming{estimateKind(req), t})
			rt.add(t)
			if !o.request(status, err) {
				continue
			}
			checkEstimate(o, req, resp)
			if round == 0 {
				o.estimates[i] = resp
			}
		}
		o.rounds = append(o.rounds, rt)
	}
	if err := w.finish(s, o); err != nil {
		return err
	}
	o.check(o.counters["dftsp_service_cache_misses_total"] == 0, "estimate ran %v syntheses, want 0",
		o.counters["dftsp_service_cache_misses_total"])
	return nil
}

// estimateKind names an estimate request by code and sampling method.
func estimateKind(req estimateRequest) string {
	method := req.Estimate.Method
	if method == "" {
		method = "stratified"
	}
	return req.Options.Code + " " + method
}

// checkEstimate gates one /estimate answer: the right code, the FT
// certificate f[1] == 0, one point per rate and a sample count on every
// sampled point.
func checkEstimate(o *outcome, req estimateRequest, resp estimateResponse) {
	want := len(req.Estimate.Rates)
	if want == 0 {
		want = 13 // the default Fig. 4 grid
	}
	ok := resp.Code == req.Options.Code && len(resp.F) > 1 && resp.F[1] == 0 && len(resp.Points) == want
	sampling := req.Estimate.TargetRSE > 0 || req.Estimate.MCShots > 0
	for _, pt := range resp.Points {
		ok = ok && (pt.Shots > 0) == sampling
	}
	if !ok {
		o.reject("estimate %s %+v: answer failed the f[1]==0 / shape check", req.Options.Code, req.Estimate)
	}
}

// jobs is the durable path: one client submits jobs one at a time and
// follows each on its event stream until it is done; a round is one job per
// job code. fleet routes every shard through the lease coordinator and one
// cmd/worker.
func (w *workload) jobs(o *outcome, fleet bool) error {
	dir, err := w.e.dir("jobs")
	if err != nil {
		return err
	}
	spec := bootSpec{args: []string{"-store-ro", w.e.fixture, "-jobs-dir", dir, "-workers", "2"}}
	if fleet {
		spec = bootSpec{args: []string{"-store-ro", w.e.fixture, "-jobs-dir", dir, "-workers", "1"}, withWorker: true}
	}
	s, err := w.bootN(spec, o)
	if err != nil {
		return err
	}
	var first string
	var rt timing
	for j := 0; j < w.units(jobRoundsPerSecond)*len(w.set.jobCodes); j++ {
		req := jobRequest(w.seed, j, w.set.jobCodes)
		var id string
		t := w.timed(func() { id, err = w.runJob(s.base, req, o) })
		if err != nil {
			s.stop()
			return err
		}
		o.reqs = append(o.reqs, reqTiming{req.Options.Code, t})
		rt.add(t)
		if j == 0 {
			first = id
		}
		if (j+1)%len(w.set.jobCodes) == 0 {
			o.rounds = append(o.rounds, rt)
			rt = timing{}
		}
	}

	// Outside the timed window: job 0 must equal an /estimate of the same
	// options bit for bit.
	var st dftsp.JobStatus
	status, err := w.getJSON(s.base+"/jobs/"+first, &st)
	if o.request(status, err) {
		o.firstJob = &st
		var est estimateResponse
		status, err := w.postJSON(s.base+"/estimate", jobRequest(w.seed, 0, w.set.jobCodes), &est)
		if o.request(status, err) {
			o.check(jobMatchesEstimate(st, est.EstimateResult), "job %s differs from the /estimate of its options", first)
		}
	}
	if err := w.finish(s, o); err != nil {
		return err
	}
	c := o.counters
	if fleet {
		o.check(c["dftsp_remote_leases_total"] > 0 && c["dftsp_remote_stale_completions_total"] == 0 &&
			c[`dftsp_remote_leases_total{event="expired"}`] == 0,
			"jobs-fleet leases: %v granted, %v expired, %v stale completions",
			c[`dftsp_remote_leases_total{event="granted"}`], c[`dftsp_remote_leases_total{event="expired"}`],
			c["dftsp_remote_stale_completions_total"])
	} else {
		_, remote := c["dftsp_remote_workers"]
		o.check(!remote, "jobs-local exposes remote-worker metrics")
	}
	return nil
}

// runJob submits one job and follows its event stream until it settles,
// returning the job ID.
func (w *workload) runJob(base string, req estimateRequest, o *outcome) (string, error) {
	var st dftsp.JobStatus
	status, err := w.postJSON(base+"/jobs", req, &st)
	if !o.request(status, err) {
		return "", fmt.Errorf("submitting a job: status %d: %v", status, err)
	}
	state := st.State
	if state == dftsp.JobStateRunning {
		if state, err = w.followJob(base, st.ID); err != nil {
			return "", err
		}
	}
	if state != dftsp.JobStateDone {
		// The authoritative state, in case the stream dropped the end.
		var now dftsp.JobStatus
		status, err := w.getJSON(base+"/jobs/"+st.ID, &now)
		if status != http.StatusOK || err != nil {
			return "", fmt.Errorf("job %s: status %d: %v", st.ID, status, err)
		}
		state = now.State
	}
	o.check(state == dftsp.JobStateDone, "job %s ended %q", st.ID, state)
	return st.ID, nil
}

// followJob reads a job's event stream until a terminal event or the end
// of the stream and returns the last state it saw.
func (w *workload) followJob(base, id string) (string, error) {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	state := dftsp.JobStateRunning
	for sc.Scan() {
		var line struct {
			State string `json:"state"` // the leading status line
			Type  string `json:"type"`  // every following event
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("job %s events: %w", id, err)
		}
		switch {
		case line.State != "" && line.State != dftsp.JobStateRunning:
			return line.State, nil
		case line.Type == "done" || line.Type == "failed" || line.Type == "cancelled" || line.Type == "paused":
			return line.Type, nil
		}
	}
	return state, sc.Err()
}

// jobMatchesEstimate reports whether every point of a finished job carries
// exactly the sampled statistics of the /estimate of the same options.
func jobMatchesEstimate(st dftsp.JobStatus, est dftsp.EstimateResult) bool {
	if len(st.Points) != len(est.Points) {
		return false
	}
	for i, jp := range st.Points {
		ep := est.Points[i]
		if jp.Shots != int64(ep.Shots) || jp.PL != ep.MC || jp.RSE != ep.RSE || jp.CILo != ep.CILo || jp.CIHi != ep.CIHi {
			return false
		}
	}
	return true
}
