package dftsp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// synthCode synthesizes the default-option protocol of a catalog code.
func synthCode(t *testing.T, code string) *Protocol {
	t.Helper()
	p, err := Synthesize(bg, Options{Code: code})
	if err != nil {
		t.Fatalf("%s: %v", code, err)
	}
	return p
}

// stateless returns a protocol over p's synthesis with no estimation state,
// so every Estimate on it compiles its estimator and computes its curve.
func stateless(p *Protocol) *Protocol { return &Protocol{Core: p.Core, Options: p.Options} }

// estimateJSON runs one estimate and renders its answer — the result's JSON
// bytes, or the error — for byte comparison.
func estimateJSON(t *testing.T, p *Protocol, eo EstimateOptions) string {
	t.Helper()
	res, err := p.Estimate(bg, eo)
	if err != nil {
		return "error: " + err.Error()
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// curveCount reports how many curves p remembers.
func curveCount(p *Protocol) int {
	p.est.mu.Lock()
	defer p.est.mu.Unlock()
	return len(p.est.curves)
}

// TestEstimateSharedProtocol runs direct, rare and stratified-only requests
// at two seeds from 8 goroutines against one Protocol, and requires each
// answer to equal, byte for byte, the answer of a separately synthesized
// protocol that keeps no estimation state. Run under -race it checks that
// the shared estimator and the curve memo are safe.
func TestEstimateSharedProtocol(t *testing.T) {
	for _, code := range []string{"Steane", "Carbon"} {
		t.Run(code, func(t *testing.T) {
			shared := synthCode(t, code)
			ref := synthCode(t, code)
			var reqs []EstimateOptions
			for _, seed := range []int64{1, 7} {
				base := EstimateOptions{MaxOrder: 3, Samples: 640, Seed: seed, Workers: 2}
				direct, rare, strata := base, base, base
				direct.Rates, direct.Method, direct.MCShots = []float64{2e-2}, "direct", 8192
				rare.Rates, rare.Method, rare.MCShots = []float64{1e-4}, "rare", 8192
				strata.Rates = []float64{1e-3, 1e-2}
				reqs = append(reqs, direct, rare, strata)
			}
			want := make([]string, len(reqs))
			for i, eo := range reqs {
				want[i] = estimateJSON(t, stateless(ref), eo)
			}

			got := make([]string, len(reqs))
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < len(reqs); i += 8 {
						res, err := shared.Estimate(bg, reqs[i])
						if err != nil {
							got[i] = "error: " + err.Error()
							continue
						}
						data, _ := json.Marshal(res)
						got[i] = string(data)
					}
				}()
			}
			wg.Wait()
			for i := range reqs {
				if got[i] != want[i] {
					t.Errorf("request %d (%+v):\nshared %s\nfresh  %s", i, reqs[i], got[i], want[i])
				}
			}
		})
	}
}

// TestEstimateCurveMemo pins what the per-protocol curve memo may and may
// not do: a hit answers exactly as a miss, callers cannot poison it,
// failures leave nothing behind, and it holds at most maxCurves curves.
func TestEstimateCurveMemo(t *testing.T) {
	uniform := EstimateOptions{Rates: []float64{1e-4, 1e-2}, MaxOrder: 3, Samples: 1000, Workers: 2}
	biased := uniform
	biased.Bias2Q, biased.BiasMeas, biased.Eta = 4, 0.5, 8

	t.Run("hit equals miss", func(t *testing.T) {
		for _, code := range []string{"Steane", "Surface", "Carbon"} {
			p := synthCode(t, code)
			for _, eo := range []EstimateOptions{uniform, biased} {
				miss, hit1, err := p.estimate(bg, eo)
				if err != nil || hit1 {
					t.Fatalf("%s first call: hit %v, err %v", code, hit1, err)
				}
				hit, hit2, err := p.estimate(bg, eo)
				if err != nil || !hit2 {
					t.Fatalf("%s second call: hit %v, err %v", code, hit2, err)
				}
				a, _ := json.Marshal(miss)
				b, _ := json.Marshal(hit)
				if !bytes.Equal(a, b) {
					t.Errorf("%s bias %v: hit\n%s\nmiss\n%s", code, eo.Biased(), b, a)
				}
			}
		}
	})

	p := synthCode(t, "Steane")

	t.Run("returned F is a copy", func(t *testing.T) {
		want := estimateJSON(t, p, uniform)
		res, err := p.Estimate(bg, uniform)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.F {
			res.F[i] = 0.5
		}
		if got := estimateJSON(t, p, uniform); got != want {
			t.Fatalf("after mutating F:\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("cancelled ctx caches nothing", func(t *testing.T) {
		q := stateless(p)
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if _, err := q.Estimate(ctx, uniform); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := curveCount(q); n != 0 {
			t.Fatalf("%d curves remembered after a cancelled call", n)
		}
		if _, hit, err := q.estimate(bg, uniform); err != nil || hit {
			t.Fatalf("next call: hit %v, err %v; want a fresh computation", hit, err)
		}
	})

	t.Run("bad order caches nothing", func(t *testing.T) {
		q := stateless(p)
		eo := uniform
		eo.MaxOrder = q.FaultLocations() + 1
		if _, err := q.Estimate(bg, eo); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("err = %v, want ErrBadOptions", err)
		}
		if n := curveCount(q); n != 0 {
			t.Fatalf("%d curves remembered after a rejected call", n)
		}
	})

	t.Run("bounded FIFO", func(t *testing.T) {
		q := stateless(p)
		eo := uniform
		eo.Samples = 64
		for seed := int64(1); seed <= maxCurves+1; seed++ {
			eo.Seed = seed
			if _, err := q.Estimate(bg, eo); err != nil {
				t.Fatal(err)
			}
		}
		if n := curveCount(q); n != maxCurves {
			t.Fatalf("%d curves remembered after %d seeds, want %d", n, maxCurves+1, maxCurves)
		}
		for _, c := range []struct {
			seed int64
			hit  bool
		}{{maxCurves + 1, true}, {2, true}, {1, false}} {
			eo.Seed = c.seed
			if _, hit, err := q.estimate(bg, eo); err != nil || hit != c.hit {
				t.Errorf("seed %d: hit %v, err %v; want hit %v", c.seed, hit, err, c.hit)
			}
		}
	})
}

// TestServiceEstimateStrataMetric checks that the service counts curve
// reuse on dftsp_estimate_strata_total.
func TestServiceEstimateStrataMetric(t *testing.T) {
	svc := NewService(2)
	// The second request differs from the first only in its rates, so it
	// reuses the curve; the third brings its own seed.
	for _, eo := range []EstimateOptions{
		{Rates: []float64{1e-2}, MaxOrder: 2, Samples: 500},
		{Rates: []float64{1e-3}, MaxOrder: 2, Samples: 500},
		{Rates: []float64{1e-2}, MaxOrder: 2, Samples: 500, Seed: 7},
	} {
		if _, _, err := svc.Estimate(bg, Options{Code: "Steane"}, eo); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := svc.strataHits.Value(), svc.strataMisses.Value(); h != 1 || m != 2 {
		t.Fatalf("strata hits %d, misses %d; want 1, 2", h, m)
	}
	var buf bytes.Buffer
	if err := svc.Metrics().Expose(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`dftsp_estimate_strata_total{result="hit"} 1`, `dftsp_estimate_strata_total{result="miss"} 2`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
