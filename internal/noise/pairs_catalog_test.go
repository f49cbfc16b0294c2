package noise_test

import (
	"context"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

// TestPairsMatchReference holds the K >= 2 law's guide-table and
// closed-form inversions, its cached per-model tables and its reach-bounded
// continuations to the reference law (noise.CheckPairs), schedule for
// schedule, on the single-fault table of every catalog code but Tesseract
// (whose synthesis takes minutes), under uniform and class-biased models
// from 1e-2 to 1e-6.
func TestPairsMatchReference(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for _, cs := range code.Catalog() {
		if cs.Name == code.Tesseract().Name {
			continue
		}
		p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
		if err != nil {
			t.Fatalf("build %s: %v", cs.Name, err)
		}
		tab := sim.NewEstimator(p).Singles()
		if tab.Reach == 0 {
			t.Fatalf("%s: the table carries no reach", cs.Name)
		}
		for _, r := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
			for _, m := range []noise.Model{noise.Uniform(r), {P1Q: r / 2, P2Q: 2 * r, PMeas: r, Eta: 4}} {
				if err := noise.CheckPairs(tab, m, uint64(r*1e12)+7, n); err != nil {
					t.Fatalf("%s %+v: %v", cs.Name, m, err)
				}
			}
		}
	}
}
