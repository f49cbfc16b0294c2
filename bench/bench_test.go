package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	a := hitStream(1, 0, 3, 200, tableOptions)
	if !reflect.DeepEqual(a, hitStream(1, 0, 3, 200, tableOptions)) {
		t.Fatal("hitStream is not reproducible from its seed")
	}
	for _, other := range [][]hitRequest{
		hitStream(2, 0, 3, 200, tableOptions), // another seed
		hitStream(1, 1, 3, 200, tableOptions), // another client
		hitStream(1, 0, 4, 200, tableOptions), // another round
	} {
		if reflect.DeepEqual(a, other) {
			t.Fatal("distinct hit streams are equal")
		}
	}
	qasm := 0
	for _, r := range a {
		if r.body.Code != tableOptions[r.option].Code && !contains(spellings(tableOptions[r.option].Code), r.body.Code) {
			t.Fatalf("spelling %q is not one of %q's", r.body.Code, tableOptions[r.option].Code)
		}
		if r.body.QASM {
			qasm++
		}
	}
	if qasm == 0 || qasm > 60 {
		t.Fatalf("%d of 200 requests ask for QASM, want about 10%%", qasm)
	}

	order := coldOrder(7, 2, len(tableOptions))
	if !reflect.DeepEqual(order, coldOrder(7, 2, len(tableOptions))) {
		t.Fatal("coldOrder is not reproducible")
	}
	sorted := append([]int(nil), order...)
	sort.Ints(sorted)
	for i, k := range sorted {
		if i != k {
			t.Fatalf("coldOrder %v is not a permutation", order)
		}
	}

	round := estimateRound(3, 1, fullSet.estimateCodes)
	if len(round) != 9 || !reflect.DeepEqual(round, estimateRound(3, 1, fullSet.estimateCodes)) {
		t.Fatalf("estimateRound: %d requests or not reproducible", len(round))
	}
	if round[0].Estimate.Seed == estimateRound(3, 2, fullSet.estimateCodes)[0].Estimate.Seed {
		t.Fatal("two estimate rounds share a sampling seed")
	}

	seeds := map[int64]bool{}
	for j := 0; j < 500; j++ {
		req := jobRequest(5, j, fullSet.jobCodes)
		if seeds[req.Estimate.Seed] {
			t.Fatalf("job %d repeats a seed: jobs would collapse into one", j)
		}
		seeds[req.Estimate.Seed] = true
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestReportablePercentiles(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, // rank 990, 10 beyond
		{99, 999, false}, // rank 990, 9 beyond
		{50, 20, true},
		{50, 19, false},
		{99, 0, false},
		{99.9, 100_000, true},
	} {
		if got := reportable(c.p, c.n); got != c.want {
			t.Errorf("reportable(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample")
	}
	if got := relSpread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// Overlapping children are merged; a child running past its parent
	// counts only inside it.
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 70, End: 80}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 70 {
		t.Errorf("covered = %d, want 70", got)
	}

	spans := []Span{
		{ID: 1, Name: rootName, Req: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.compile", Req: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.sample", Req: "a", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "jobs.append", Req: "a", Start: 50, End: 60},

		// A replayed call repeated inside a sibling the replay cannot see into.
		{ID: 5, Name: rootName, Req: "b", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "verify.sat", Req: "b", Start: 200, End: 220, DupOf: "core.build_from_prep"},
		{ID: 7, Parent: 5, Name: "core.build_from_prep", Req: "b", Start: 220, End: 290},

		{ID: 8, Name: "bench.setup", Start: 400, End: 500}, // not a request
	}
	self, eff := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 10, 6: 20, 7: 50, 8: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if eff[1] != 100 || eff[5] != 80 {
		t.Errorf("effective root times %d, %d, want 100, 80", eff[1], eff[5])
	}

	layers, total := summarize(spans)
	if total != 180 {
		t.Fatalf("total = %d, want 180", total)
	}
	var sum int64
	for _, ls := range layers {
		sum += ls.Self
	}
	if sum != total {
		t.Errorf("layer self times add up to %d of %d", sum, total)
	}
	want := map[string]layerStats{"bench": {2, 60}, "sim": {2, 40}, "jobs": {1, 10}, "verify": {1, 20}, "core": {1, 50}}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("layers = %v, want %v", layers, want)
	}

	var tr *tracer // a nil tracer records nothing and never panics
	tr.end(tr.start("x", 0, ""))
	tr.dup(tr.start("y", 0, ""), "x")
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"faster in every pair", base, scaled(0.8), true, 0.1, improved},
		{"same runs", base, base, true, 0.1, unchanged},
		{"slower within the bound", base, scaled(1.05), true, 0.1, unchanged},
		{"slower beyond the bound", base, scaled(1.3), true, 0.1, regressed},
		{"higher-is-better metric dropped", base, scaled(0.7), false, 0.1, regressed},
		{"higher-is-better metric rose", base, scaled(1.25), false, 0.1, improved},
		{"too few pairs to claim a gain", base[:3], scaled(0.8)[:3], true, 0.1, unchanged},
		{"parent spread wider than the bound", []float64{50, 150, 80, 120, 100}, []float64{90, 130, 100, 70, 110}, true, 0.1, unresolved},
		{"wide spread but every change run better", []float64{50, 150, 80, 120, 100}, []float64{10, 20, 15, 12, 11}, true, 0.1, unchanged},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
