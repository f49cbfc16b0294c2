package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/dftsp"
)

// cheapSet drives every workload's real path against the real binaries in
// seconds: the cheapest option sets, plus Carbon for the estimate workload
// and the sampling probes.
var cheapSet = workloadSet{
	options: []dftsp.Options{
		{Code: "Steane"}, {Code: "Shor"}, {Code: "Surface"}, {Code: "Carbon"},
		{Code: "Steane", Verif: dftsp.VerifGlobal}, {Code: "Surface", Verif: dftsp.VerifGlobal},
	},
	estimateCodes: fullSet.estimateCodes,
	jobCodes:      fullSet.jobCodes,
}

// TestSmokeEveryWorkload runs every workload at 1/20 of the benchmark's
// run length on the cheap option sets, then one traced run, and checks the
// gates passed and every metric BENCHMARK.json names was reported.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the binaries with")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, name := range workloadNames {
		rec, err := runWorkload(ctx, root, runSpec{name: name, seed: 3, seconds: 0.5}, cheapSet)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, rec.Failed, rec.Attempted, rec.FailedGates)
		}
		if len(rec.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(rec.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, m.Name, got, m.Unit)
			}
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	rec, err := runWorkload(ctx, root, runSpec{name: "estimate", seed: 3, seconds: 0.5, trace: true, spans: spans}, cheapSet)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("traced estimate: %v", rec.FailedGates)
	}
	if len(rec.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced estimate: %d metrics, BENCHMARK.json names %d", len(rec.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced estimate: metric %s = %+v, want one in %s", m.Name, got, m.Unit)
		}
	}
	if c := rec.Metrics["trace.coverage_pct"].Value; c < 90 {
		t.Errorf("layer self times cover %.1f%% of the requests, want >= 90%%", c)
	}
	data, err = os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []Span }
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(file.Spans), err)
	}
}
