package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Count returns the total number of observations; the tests read it where
// production reads the exposition.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatalf("re-registration returned a distinct counter")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter has nonzero value")
	}
	g := r.Gauge("g", "")
	g.Set(2)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge has nonzero value")
	}
	h := r.Histogram("h", "", LatencyBuckets)
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram recorded an observation")
	}
	cv := r.CounterVec("cv_total", "", "k")
	cv.With("x").Inc()
	if cv.Total() != 0 {
		t.Fatalf("nil counter vec has nonzero total")
	}
	hv := r.HistogramVec("hv", "", LatencyBuckets, "k")
	hv.With("x").Observe(1)
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatalf("nil Expose: %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil Expose wrote %q", sb.String())
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := New()
	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value = %v, want 2", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 55.65", h.Sum())
	}
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1 itself
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabelsAndTotal(t *testing.T) {
	r := New()
	v := r.CounterVec("shots_total", "shots", "engine", "method")
	v.With("clifford", "adaptive").Add(10)
	v.With("clifford", "adaptive").Add(5)
	v.With("dense", "rare").Add(7)
	if got := v.Total(); got != 22 {
		t.Fatalf("Total = %d, want 22", got)
	}
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `shots_total{engine="clifford",method="adaptive"} 15`) {
		t.Errorf("missing labeled series:\n%s", out)
	}
	if !strings.Contains(out, `shots_total{engine="dense",method="rare"} 7`) {
		t.Errorf("missing second series:\n%s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New()
	n := 41.0
	r.GaugeFunc("entries", "live entries", func() float64 { return n })
	n = 42
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "entries 42") {
		t.Fatalf("gauge func not evaluated at exposition:\n%s", sb.String())
	}
}

func TestExposeFormatAndLint(t *testing.T) {
	r := New()
	r.Counter("a_total", "a counter").Inc()
	r.Gauge("b", `tricky "help"`+"\nsecond line").Set(1.5)
	v := r.CounterVec("c_total", "labeled", "path")
	v.With(`with"quote\and` + "\nnewline").Inc()
	r.Histogram("d_seconds", "hist", []float64{0.5}).Observe(0.2)
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total a counter\n# TYPE a_total counter\na_total 1\n",
		"# TYPE b gauge\nb 1.5\n",
		`c_total{path="with\"quote\\and\nnewline"} 1`,
		"# TYPE d_seconds histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "# HELP a_total") > strings.Index(out, "# HELP b ") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("Lint rejected Expose output: %v\n%s", err, out)
	}
}

func TestLintRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty payload":   "",
		"bad name":        "9bad 1\n",
		"bad value":       "ok_total one\n",
		"bad type":        "# TYPE x foo\nx 1\n",
		"unclosed labels": "x{a=\"b 1\n",
		"bucket on counter": "# TYPE x counter\nx_bucket{le=\"1\"} 1\n" +
			"x 1\n",
	}
	for name, payload := range cases {
		if err := Lint(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, payload)
		}
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with different kind did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", LatencyBuckets)
	v := r.CounterVec("conc_vec_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				v.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
	}
	// Expose concurrently with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var sb strings.Builder
			if err := r.Expose(&sb); err != nil {
				t.Errorf("Expose: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if v.Total() != 8000 {
		t.Fatalf("vec total = %d, want 8000", v.Total())
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}
