// Command bench is the outside-in benchmark of the dftsp service. It builds
// the real cmd/server, cmd/worker and cmd/precompute binaries from the
// checkout it runs in, drives seeded closed-loop workloads against them
// over loopback HTTP, checks every answer, and prints the end-to-end
// metrics of each workload as one JSON line. With -trace 1 it instead
// replays the same generated inputs in-process, one span around every call
// into a layer, and prints per-layer metrics. See README.md.
//
// Usage (from the checkout root; bench/run.sh keeps every cache inside
// the checkout):
//
//	bash bench/run.sh --workload synth-hit --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -out run.json            # all five workloads
//	bash bench/run.sh compare A.json B.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process-global parts, for tests. It returns the
// exit status: 0 when every run passed its gates, 1 when a gate failed (the
// result is still printed) or the benchmark could not run (nothing is
// printed), 2 for bad usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, in that order)")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		secs    = fs.Float64("seconds", 10, "seconds of traffic each workload measures")
		trace   = fs.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end run")
		out     = fs.String("out", "", "also append every run's result to this file")
		set     = fs.String("set", "main", "-out: name of the set the runs are appended to")
		spansTo = fs.String("spans", "", "-trace 1: span file (default .bench_build/trace/<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *name != "" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *trace != 0 && *trace != 1 || *secs <= 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	status := 0
	for _, n := range names {
		rec, err := runWorkload(ctx, root, runSpec{name: n, seed: *seed, seconds: *secs, trace: *trace == 1, spans: *spansTo}, fullSet)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		for _, g := range rec.FailedGates {
			fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", n, g)
		}
		if *out != "" {
			if err := appendRecord(*out, *set, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Metrics   metrics `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// metrics is a run's report: one value with its unit per metric name.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// runSpec is one requested run.
type runSpec struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	spans   string
}

// record is one run as kept in a result file.
type record struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	Seconds     float64  `json:"seconds"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Metrics     metrics  `json:"metrics"`
	FailedGates []string `json:"failed_gates,omitempty"`
}

// runWorkload sets up the checkout and runs one workload: the HTTP run and,
// in trace mode, the in-process replay and the layer probes.
func runWorkload(ctx context.Context, root string, rs runSpec, set workloadSet) (record, error) {
	e, err := setup(ctx, root, rs.name, set)
	if err != nil {
		return record{}, err
	}
	ref, err := newPlatformRef()
	if err != nil {
		return record{}, err
	}
	defer ref.close()
	w := &workload{ctx: ctx, e: e, name: rs.name, seed: rs.seed, seconds: rs.seconds, set: set,
		hc: newHTTPClient(hitClients + 2), ref: ref}
	defer w.hc.CloseIdleConnections()
	w.last = ref.sample()
	if rs.trace {
		// Half the time drives traffic (for the server's counters and the
		// answers the replay is checked against), a quarter replays.
		w.seconds = rs.seconds / 2
	}
	o := &outcome{}
	if err := w.drive(o); err != nil {
		return record{}, err
	}
	if ref.err != nil {
		return record{}, ref.err
	}

	var m metrics
	if rs.trace {
		tr := newTracer()
		stats, err := w.replay(tr, o, time.Duration(rs.seconds/4*float64(time.Second)))
		if err != nil {
			return record{}, err
		}
		m = perLayer(rs.name, o, tr.spans, stats, w.ref.all)
		if err := w.probeLayers(m); err != nil {
			return record{}, fmt.Errorf("layer probes: %w", err)
		}
		path := rs.spans
		if path == "" {
			path = filepath.Join(e.work, "trace", fmt.Sprintf("%s-%d.json", rs.name, rs.seed))
		}
		if err := writeSpans(path, rs.name, rs.seed, tr.spans); err != nil {
			return record{}, err
		}
	} else {
		if rs.name == "estimate" {
			// The replay gate: round 0 recomputed in-process, untraced.
			if _, err := w.replay(nil, o, 0); err != nil {
				return record{}, err
			}
		}
		m = endToEnd(o)
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return record{}, fmt.Errorf("metric %s is not a number", k)
		}
	}
	if o.failed == 0 {
		// A clean run leaves nothing worth keeping; a failed one keeps its
		// logs and stores for inspection.
		_ = os.RemoveAll(e.run) // best effort: the directory is ignored by git
	}
	return record{
		Workload: rs.name, Seed: rs.seed, Trace: rs.trace, Seconds: rs.seconds,
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: m, FailedGates: o.gateErrs,
	}, nil
}

// drive runs the workload's HTTP traffic.
func (w *workload) drive(o *outcome) error {
	switch w.name {
	case "synth-cold":
		return w.synthCold(o)
	case "synth-hit":
		return w.synthHit(o)
	case "estimate":
		return w.estimate(o)
	case "jobs-local":
		return w.jobs(o, false)
	case "jobs-fleet":
		return w.jobs(o, true)
	}
	return fmt.Errorf("unknown workload %q", w.name)
}

// endToEnd derives the end-to-end metrics of an HTTP run, every time at
// reference speed.
func endToEnd(o *outcome) metrics {
	m := metrics{}
	m.set("setup_s", median(seconds(scaledOf(o.boots))), "s")
	m.set("server_rss_mb", median(o.serverMB), "MB")
	m.set("round_s", median(seconds(scaledOf(o.rounds))), "s")
	m.set("req_ms", typicalLatency(o.reqs, true), "ms")
	return m
}

// rawOf returns the measured durations of ts.
func rawOf(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.raw
	}
	return out
}

// scaledOf returns the reference-speed durations of ts.
func scaledOf(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.scaled
	}
	return out
}

// typicalLatency is the geometric mean over request kinds of each kind's
// median latency in ms (scaled or raw). Every workload mixes kinds of very
// different cost in fixed proportions; a median over the pooled requests
// would jump between kinds from run to run.
func typicalLatency(reqs []reqTiming, scaled bool) float64 {
	byKind := map[string][]float64{}
	for _, r := range reqs {
		d := r.raw
		if scaled {
			d = r.scaled
		}
		byKind[r.kind] = append(byKind[r.kind], float64(d)/float64(time.Millisecond))
	}
	if len(byKind) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	for _, xs := range byKind {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// tailPercentiles are the percentiles the tail report chooses from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail returns the highest percentile of reqs' scaled latencies (ms) that
// has at least minBeyond samples above it, and that percentile.
func tail(reqs []reqTiming) (pct, ms float64) {
	lat := make([]float64, len(reqs))
	for i, r := range reqs {
		lat[i] = float64(r.scaled) / float64(time.Millisecond)
	}
	for _, p := range tailPercentiles {
		if reportable(p, len(lat)) {
			return p, percentile(lat, p)
		}
	}
	return 100, percentile(lat, 100)
}

// perLayer derives the per-layer metrics of a traced run from the replay's
// spans and the HTTP run's server counters.
func perLayer(name string, o *outcome, spans []Span, rs replayStats, refSamples []time.Duration) metrics {
	m := metrics{}
	layers, total := summarize(spans)
	for _, l := range traceLayers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(layers[l].Self) / float64(total)
		}
		m.set("share."+l, share, "%")
		m.set("calls."+l, float64(layers[l].Calls), "count")
	}
	m.set("trace.coverage_pct", 100-m["share.bench"].Value, "%")

	c := o.counters
	m.set("dftsp.cache_hits", c["dftsp_service_cache_hits_total"], "count")
	m.set("dftsp.cache_misses", c["dftsp_service_cache_misses_total"], "count")
	m.set("dftsp.store_writes", c["dftsp_service_store_writes_total"], "count")
	m.set("http.requests", c["dftsp_http_requests_total"], "count")
	m.set("jobs.shards", c["dftsp_jobs_shards_total"], "count")
	granted := c[`dftsp_remote_leases_total{event="granted"}`]
	m.set("shardrpc.granted", granted, "count")
	m.set("shardrpc.expired", c[`dftsp_remote_leases_total{event="expired"}`], "count")
	m.set("shardrpc.stale", c["dftsp_remote_stale_completions_total"], "count")
	remoteShare := 0.0
	if shards := c["dftsp_jobs_shards_total"]; shards > 0 {
		remoteShare = granted / shards
	}
	m.set("shardrpc.remote_share", remoteShare, "ratio")
	m.set("worker.rss_mb", o.workerMB, "MB")

	// The traced run's own HTTP traffic: the raw times the end-to-end
	// metrics are scaled from, the reference they were scaled by, and the
	// latency tail.
	m.set("raw.round_s", median(seconds(rawOf(o.rounds))), "s")
	m.set("raw.req_ms", typicalLatency(o.reqs, false), "ms")
	m.set("platform.ref_us", median(millis(refSamples))*1e3, "us")
	pct, ms := tail(o.reqs)
	m.set("http.tail_pct", pct, "%")
	m.set("http.tail_ms", ms, "ms")
	m.set("http.samples", float64(len(o.reqs)), "count")

	// The job workloads sample on two threads (two local workers, or one
	// plus the worker process); what the replay spent sampling per job,
	// against two threads' worth of the served job's wall time, leaves the
	// share of that time spent on anything else.
	overhead := 0.0
	if strings.HasPrefix(name, "jobs") && rs.units > 0 && len(o.reqs) > 0 {
		var wall time.Duration
		for _, r := range o.reqs {
			wall += r.raw
		}
		sample := float64(rs.shardSampleN) / float64(rs.units)
		overhead = 1 - sample/(2*float64(wall)/float64(len(o.reqs)))
	}
	m.set("jobs.overhead_share", overhead, "ratio")
	return m
}

//go:embed testdata/table1.golden
var goldenTable1 string

// loadGolden parses the Table I golden file: one "label<TAB>metrics row"
// line per option set.
func loadGolden() (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(goldenTable1), "\n") {
		lb, row, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("table1.golden: malformed line %q", line)
		}
		out[lb] = row
	}
	return out, nil
}

// resultFile is the on-disk form of -out: named sets of runs.
type resultFile struct {
	Sets map[string][]record `json:"sets"`
}

// readResults loads a result file; path may end in #set to select one set.
func readResults(path string) (map[string][]record, error) {
	file, setName, _ := strings.Cut(path, "#")
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if setName == "" {
		return rf.Sets, nil
	}
	runs, ok := rf.Sets[setName]
	if !ok {
		return nil, fmt.Errorf("%s has no set %q", file, setName)
	}
	return map[string][]record{setName: runs}, nil
}

// appendRecord adds rec to the named set of the result file at path.
func appendRecord(path, set string, rec record) error {
	rf := resultFile{Sets: map[string][]record{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if rf.Sets == nil {
		rf.Sets = map[string][]record{}
	}
	rf.Sets[set] = append(rf.Sets[set], rec)
	data, err = json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
