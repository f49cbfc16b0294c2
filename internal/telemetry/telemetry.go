// Package telemetry is a dependency-free metrics registry exposed in the
// Prometheus text exposition format (version 0.0.4), the observability
// spine of the serving stack: the dftsp service, the persistent stores,
// the jobs runner and the HTTP server all register their counters, gauges
// and histograms on one Registry, the server writes it out at GET /metrics
// via Expose, and /stats derives its JSON from the very same metric values
// — one source of truth, no double counting.
//
// The package deliberately implements only what the repository needs:
// monotone uint64 counters, float64 gauges (including function gauges read
// at exposition time), fixed-bucket histograms, and labeled vec variants of
// counters and histograms. All metric operations are safe for concurrent
// use and allocation-free on the hot path (counters and gauges are single
// atomics; histograms take one mutex per observation).
//
// Every metric method is safe on a nil receiver (it no-ops, reads return
// zero), and Registry constructors on a nil *Registry return nil metrics —
// so a component can be instrumented unconditionally and run uninstrumented
// at zero cost when no registry is attached.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the default histogram bucket layout for wall-time
// observations in seconds, spanning sub-millisecond cache hits to
// multi-minute SAT solves.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// kind is the metric family type, named as the exposition format spells it.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a set of metric families exposed together. The zero value is
// not usable; construct with New. All methods are safe for concurrent use,
// and registration is idempotent: asking twice for the same name returns
// the same metric, while re-registering a name with a different kind or
// label set panics (a programmer error, caught by any test that touches
// the path).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{fams: map[string]*family{}} }

// family is one named metric family and its label series.
type family struct {
	name, help string
	kind       kind
	labels     []string
	buckets    []float64      // histogram upper bounds, sorted, no +Inf
	fn         func() float64 // function gauge, read at exposition time

	mu     sync.Mutex
	series map[string]any // label-value key → *Counter | *Gauge | *Histogram
	order  []string       // series keys in first-use order
}

// labelKey joins label values into a series map key.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// family registers (or fetches) a family. A nil registry returns nil.
func (r *Registry) family(name, help string, k kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic("telemetry: invalid label name " + strconv.Quote(l) + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic("telemetry: metric " + name + " re-registered with a different kind or label set")
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    k,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]any{},
	}
	sort.Float64s(f.buckets)
	r.fams[name] = f
	return f
}

// get fetches (or creates) one series of a family.
func (f *family) get(values []string) any {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		m = &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// Counter registers (or fetches) an unlabeled monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil).(*Counter)
}

// CounterVec registers (or fetches) a counter family with the given label
// names; use With to address one series.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, kindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for values that already live elsewhere (map sizes, goroutine
// counts, EWMAs under another lock). fn must not call back into the
// registry. Re-registering an existing name keeps the original function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.fn == nil {
		f.fn = fn
	}
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram;
// buckets are upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil, buckets)
	if f == nil {
		return nil
	}
	return f.get(nil).(*Histogram)
}

// HistogramVec registers (or fetches) a histogram family with the given
// label names; use With to address one series.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.family(name, help, kindHistogram, labels, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// Counter is a monotonically increasing uint64 metric. All methods are
// nil-safe and lock-free.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec addresses the labeled series of a counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created at zero on
// first use). The value count must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).(*Counter)
}

// Total sums the counter across all label series.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var total uint64
	for _, m := range v.f.series {
		total += m.(*Counter).v.Load()
	}
	return total
}

// Gauge is a float64 metric that can go up and down. All methods are
// nil-safe and lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum, the shape Prometheus histograms expose. All methods are
// nil-safe.
type Histogram struct {
	buckets []float64 // upper bounds, sorted; +Inf implicit

	mu     sync.Mutex
	counts []uint64 // len(buckets)+1; last is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramVec addresses the labeled series of a histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created empty on
// first use). The value count must match the registered label names.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).(*Histogram)
}

// Expose writes every registered family in the Prometheus text exposition
// format, sorted by family name, each preceded by its # HELP and # TYPE
// lines. Function gauges are evaluated during the write (without holding
// any registry lock). A nil registry writes nothing.
func (r *Registry) Expose(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.expose(bw)
	}
	return bw.Flush()
}

// expose writes one family.
func (f *family) expose(w *bufio.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	fn := f.fn
	f.mu.Unlock()

	if f.kind == kindGauge && fn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(fn()))
		return
	}
	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\xff")
		}
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, "", 0), m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", 0), formatFloat(m.Value()))
		case *Histogram:
			m.mu.Lock()
			counts := append([]uint64(nil), m.counts...)
			sum, count := m.sum, m.count
			m.mu.Unlock()
			var cum uint64
			for b, bound := range m.buckets {
				cum += counts[b]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", bound), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", math.Inf(1)), count)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", 0), formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", 0), count)
		}
	}
}

// labelString renders a {a="x",b="y"} label block, optionally appending an
// le bound label (for histogram buckets); it returns "" when there are no
// labels at all.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the exposition format expects,
// including the +Inf bucket bound.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in a help string.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, quotes and newlines in a label value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// equalStrings reports element-wise equality.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
