package dftsp

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prep"
)

var bg = context.Background()

func TestSynthesizeSteaneDefaults(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeName() != "Steane" {
		t.Fatalf("default code = %q, want Steane", p.CodeName())
	}
	if p.Options.Prep != PrepHeuristic || p.Options.Verif != VerifOptimal {
		t.Fatalf("options not normalized: %+v", p.Options)
	}
	if err := p.Certify(); err != nil {
		t.Fatalf("Steane protocol failed the FT certificate: %v", err)
	}
	if p.FaultLocations() == 0 {
		t.Fatal("no fault locations reported")
	}
	if !strings.Contains(p.Summary(), "Steane") {
		t.Fatalf("summary missing code name: %q", p.Summary())
	}
	if !strings.Contains(p.Describe(), "layer 1") {
		t.Fatalf("describe missing layer report: %q", p.Describe())
	}
	q, err := p.QASM()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, "OPENQASM 2.0") {
		t.Fatalf("QASM export missing header: %q", q[:60])
	}
}

func TestSynthesizeCustomCodeMatchesCatalog(t *testing.T) {
	// The Steane code given explicitly as check matrices.
	rows := []string{"1100110", "1010101", "0001111"}
	p, err := Synthesize(bg, Options{Hx: rows, Hz: rows})
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeParams() != "[[7,1,3]]" {
		t.Fatalf("custom code params = %q, want [[7,1,3]]", p.CodeParams())
	}
	if err := p.Certify(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidationTypedErrors(t *testing.T) {
	// Every invalid-options path must wrap ErrBadOptions (the acceptance
	// criterion of the v2 error taxonomy).
	cases := []Options{
		{Code: "Steane", SurfaceDistance: 3},       // two sources
		{Hx: []string{"11"}},                       // hx without hz
		{SurfaceDistance: 4},                       // even distance
		{Code: "Steane", Prep: "banana"},           // bad prep
		{Code: "Steane", Verif: "banana"},          // bad verif
		{Code: "NoSuchCode"},                       // unknown catalog name
		{Hx: []string{"110"}, Hz: []string{"011"}}, // anticommuting rows
		{Hx: []string{"1x0"}, Hz: []string{"011"}}, // malformed bit string
	}
	for i, o := range cases {
		_, err := Synthesize(bg, o)
		if err == nil {
			t.Errorf("case %d (%+v): expected error", i, o)
			continue
		}
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d: error %v does not wrap ErrBadOptions", i, err)
		}
	}
	_, err := Synthesize(bg, Options{Code: "NoSuchCode"})
	if !errors.Is(err, ErrUnknownCode) {
		t.Fatalf("unknown code error %v does not wrap ErrUnknownCode", err)
	}
}

// TestOptionsSearchBudgetsBounded pins the bounds on the client-set search
// budgets: a negative prep_budget or global_limit, or a prep_budget above
// prep.DefaultBudget, is ErrBadOptions before any synthesis, while the
// bounds themselves are valid options.
func TestOptionsSearchBudgetsBounded(t *testing.T) {
	for _, o := range []Options{
		{Code: "Steane", Prep: PrepOptimal, PrepBudget: -1},
		{Code: "Steane", Prep: PrepOptimal, PrepBudget: prep.DefaultBudget + 1},
		{Code: "Steane", Verif: VerifGlobal, GlobalLimit: -1},
	} {
		if _, err := o.Key(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%+v: Key error %v, want ErrBadOptions", o, err)
		}
		if _, err := Synthesize(bg, o); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%+v: Synthesize error %v, want ErrBadOptions", o, err)
		}
	}
	key, err := Options{Code: "Steane", PrepBudget: prep.DefaultBudget, GlobalLimit: 1}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if want := "code:Steane|prep=heu,budget=400000|verif=opt,limit=1|flagall=false"; key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
}

func TestOptionsKeyCanonicalization(t *testing.T) {
	a, err := Options{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Options{Code: "Steane", Prep: "HEU", Verif: "OPT"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent options produced different keys:\n%s\n%s", a, b)
	}
	c, err := Options{Code: "Steane", Prep: "opt"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different prep methods share a cache key")
	}
}

func TestEstimateSteane(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Estimate(bg, EstimateOptions{
		Rates:    []float64{1e-3, 1e-2},
		MaxOrder: 2,
		Samples:  2000,
		MCShots:  2000,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Locations == 0 {
		t.Fatal("no fault locations")
	}
	if res.F[1] != 0 {
		t.Fatalf("F[1] = %g, want 0 for a fault-tolerant protocol", res.F[1])
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.PL <= 0 || pt.PL >= 1 {
			t.Fatalf("pL(%g) = %g outside (0,1)", pt.P, pt.PL)
		}
	}
	if res.Points[1].MC == 0 {
		t.Fatal("Monte-Carlo cross-check sampled no failures at p=1e-2")
	}
	_, err = p.Estimate(bg, EstimateOptions{Rates: []float64{2}})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("rate outside (0,1): err = %v, want ErrBadOptions", err)
	}
}

// TestEstimateBadOptionsRegressions pins the estimator bugfix sweep at the
// facade: inputs that previously produced NaN estimates or fed binomPMF a
// negative n-w now surface as ErrBadOptions before or during estimation.
func TestEstimateBadOptionsRegressions(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		eo   EstimateOptions
	}{
		{"negative mc_shots", EstimateOptions{Rates: []float64{1e-2}, MCShots: -1}},
		{"negative max_shots", EstimateOptions{Rates: []float64{1e-2}, MaxShots: -1}},
		{"negative max_shots adaptive", EstimateOptions{Rates: []float64{1e-2}, TargetRSE: 0.1, MaxShots: -1}},
		{"negative target_rse", EstimateOptions{Rates: []float64{1e-2}, TargetRSE: -0.1}},
		{"target_rse >= 1", EstimateOptions{Rates: []float64{1e-2}, TargetRSE: 1.5}},
		{"negative mc_min_rate", EstimateOptions{Rates: []float64{1e-2}, MCMinRate: -1}},
		{"max_order above locations", EstimateOptions{Rates: []float64{1e-2}, MaxOrder: 10_000, Samples: 10}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := p.Estimate(bg, tc.eo)
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("err = %v (res %+v), want ErrBadOptions", err, res)
			}
		})
	}
}

// TestEstimateAdaptive exercises the TargetRSE path end to end: the sampled
// point must report its shot count, an RSE at or below the target, and a
// Wilson interval bracketing the estimate.
func TestEstimateAdaptive(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Estimate(bg, EstimateOptions{
		Rates:     []float64{1e-3, 5e-2},
		MaxOrder:  2,
		Samples:   2000,
		TargetRSE: 0.25,
		MaxShots:  2_000_000,
		MCMinRate: 1e-2,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Points[0], res.Points[1]
	if lo.Shots != 0 || lo.MC != 0 {
		t.Fatalf("point below mc_min_rate was sampled: %+v", lo)
	}
	if hi.Shots == 0 {
		t.Fatalf("adaptive point not sampled: %+v", hi)
	}
	if hi.RSE <= 0 || hi.RSE > 0.25 {
		t.Fatalf("adaptive RSE %g, want (0, 0.25]", hi.RSE)
	}
	if !(hi.CILo <= hi.MC && hi.MC <= hi.CIHi) {
		t.Fatalf("Wilson interval [%g, %g] does not bracket %g", hi.CILo, hi.CIHi, hi.MC)
	}
}

// TestEstimateAdaptiveMinRateFloor pins the method-dependent adaptive
// default of MCMinRate: with Method "direct", a low-rate point that can
// never observe a failure must be skipped rather than deterministically
// burning the whole MaxShots cap — while the default "auto" method samples
// the same point via the rare-event estimator, which handles tiny rates
// cheaply and so gets no floor.
func TestEstimateAdaptiveMinRateFloor(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Estimate(bg, EstimateOptions{
		Rates:     []float64{1e-3}, // below the direct 1e-2 default floor
		MaxOrder:  2,
		Samples:   500,
		TargetRSE: 0.3,
		Method:    "direct",
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt := res.Points[0]; pt.Shots != 0 || pt.MC != 0 {
		t.Fatalf("direct point below the adaptive floor was sampled: %+v", pt)
	}

	res, err = p.Estimate(bg, EstimateOptions{
		Rates:     []float64{1e-3},
		MaxOrder:  2,
		Samples:   500,
		TargetRSE: 0.3,
		Workers:   2, // Method defaults to auto: no floor, rare-event sampling
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Shots == 0 {
		t.Fatalf("auto point below the direct floor was not sampled: %+v", pt)
	}
	if pt.Method != "rare" {
		t.Fatalf("auto at p=1e-3 ran method %q, want rare", pt.Method)
	}
}

// TestEstimateMethodSelection covers the Method escape hatch at the facade:
// forced direct and rare sampling agree statistically in the overlap
// regime, the response labels each point with the method that ran and
// carries the weighted-sample diagnostics, and a bogus name is rejected as
// ErrBadOptions before any synthesis-priced work.
func TestEstimateMethodSelection(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(method string) RatePoint {
		t.Helper()
		res, err := p.Estimate(bg, EstimateOptions{
			Rates:    []float64{2e-2},
			MaxOrder: 1,
			MCShots:  100_000,
			Workers:  2,
			Method:   method,
		})
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		pt := res.Points[0]
		if pt.Shots != 100_000 {
			t.Fatalf("method %q ran %d shots, want 100000", method, pt.Shots)
		}
		return pt
	}
	direct := run("direct")
	rare := run("rare")
	if direct.Method != "direct" || rare.Method != "rare" {
		t.Fatalf("method labels: direct %q, rare %q", direct.Method, rare.Method)
	}
	if direct.EffSamples != float64(direct.Shots) || direct.WeightVar != 0 {
		t.Fatalf("direct point carries conditional diagnostics: %+v", direct)
	}
	if rare.EffSamples <= 0 || rare.EffSamples > float64(rare.Shots) || rare.WeightVar < 0 {
		t.Fatalf("rare diagnostics out of range: %+v", rare)
	}
	// Generous two-sample agreement bound in the overlap regime (>5σ of
	// the combined binomial noise at these budgets).
	if diff := math.Abs(direct.MC - rare.MC); diff > 0.003 {
		t.Fatalf("direct %g and rare %g estimates too far apart", direct.MC, rare.MC)
	}

	if _, err := p.Estimate(bg, EstimateOptions{Method: "subset"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown method error %v, want ErrBadOptions", err)
	}
	// A forced rare method propagates the simulator's rate validation
	// through the facade taxonomy. (Rates outside (0,1) are already
	// rejected by Validate, so exercise via MethodRare at a valid rate
	// with a broken budget instead.)
	if _, err := p.Estimate(bg, EstimateOptions{
		Rates: []float64{1e-2}, Method: "rare", MCShots: -1,
	}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative budget error %v, want ErrBadOptions", err)
	}
}

// TestEstimateBiasValidation covers the noise-model multiplier validation
// at the facade: the grid check uses the *requested* rates (a large bias
// at a low explicit rate is fine — the regression here was validating
// against the default grid's 0.1 top even with explicit rates), falls
// back to the default grid only when no rates are given, and rejects
// non-finite or non-positive multipliers before any sampling.
func TestEstimateBiasValidation(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Estimate(bg, EstimateOptions{
		Rates: []float64{1e-3}, MaxOrder: 1, MCShots: 20_000,
		Bias2Q: 10, BiasMeas: 0.5, Eta: 8,
	})
	if err != nil {
		t.Fatalf("bias_2q=10 at explicit p=1e-3 rejected: %v", err)
	}
	if res.NoiseBias == nil || res.NoiseBias.Bias2Q != 10 || res.NoiseBias.Eta != 8 {
		t.Fatalf("noise_bias not echoed: %+v", res.NoiseBias)
	}
	bad := []EstimateOptions{
		{MCShots: 1000, Bias2Q: 10},                        // default grid tops at 0.1 → rate 1
		{Rates: []float64{2e-1}, MCShots: 1000, Bias2Q: 5}, // explicit rate reaches 1
		{Rates: []float64{1e-3}, Bias2Q: -1},               // negative multiplier
		{Rates: []float64{1e-3}, BiasMeas: math.NaN()},     // NaN
		{Rates: []float64{1e-3}, Eta: math.Inf(1)},         // Inf
	}
	for i, eo := range bad {
		if _, err := p.Estimate(bg, eo); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadOptions", i, eo, err)
		}
	}
}

// TestEstimateEngineSelection covers the Engine escape hatch at the facade:
// the explicit engines sample successfully and agree statistically, while a
// bogus name is rejected as ErrBadOptions before any synthesis-priced work.
func TestEstimateEngineSelection(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine string) EstimateResult {
		t.Helper()
		res, err := p.Estimate(bg, EstimateOptions{
			Rates:    []float64{5e-2},
			MaxOrder: 1,
			MCShots:  20_000,
			Workers:  2,
			Engine:   engine,
		})
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if res.Points[0].Shots != 20_000 {
			t.Fatalf("engine %q ran %d shots, want 20000", engine, res.Points[0].Shots)
		}
		return res
	}
	scalar := run("scalar")
	batch := run("batch")
	auto := run("auto")
	// Generous agreement bound: at p=0.05 the logical rate is a few percent,
	// so 20k-shot estimates from independent streams land within ~0.01.
	if diff := math.Abs(scalar.Points[0].MC - batch.Points[0].MC); diff > 0.02 {
		t.Fatalf("scalar %g and batch %g estimates too far apart", scalar.Points[0].MC, batch.Points[0].MC)
	}
	if auto.Points[0].MC == 0 {
		t.Fatal("auto engine sampled no failures")
	}

	_, err = p.Estimate(bg, EstimateOptions{Rates: []float64{1e-2}, Engine: "warp"})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bogus engine: err = %v, want ErrBadOptions", err)
	}
}

// TestRatePointJSONPresence pins the response contract: a sampled point
// serializes all five sampling fields even when the values are exactly
// zero (a clean 10M-shot run), and an unsampled point serializes none.
func TestRatePointJSONPresence(t *testing.T) {
	sampled, err := json.Marshal(RatePoint{P: 1e-2, PL: 1e-4, Shots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"mc":0`, `"shots":1000`, `"rse":0`, `"ci_lo":0`, `"ci_hi":0`} {
		if !strings.Contains(string(sampled), field) {
			t.Fatalf("sampled zero-failure point %s lacks %s", sampled, field)
		}
	}
	unsampled, err := json.Marshal(RatePoint{P: 1e-4, PL: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"mc", "shots", "rse", "ci_lo", "ci_hi"} {
		if strings.Contains(string(unsampled), field) {
			t.Fatalf("unsampled point %s carries %q", unsampled, field)
		}
	}
}

func TestSynthesizeCancelledMidSAT(t *testing.T) {
	// A deadline far shorter than the Tetrahedral [[15,1,3]] synthesis
	// (seconds of SAT work) must abort the build from inside the conflict
	// loop, promptly.
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Synthesize(ctx, Options{Code: "Tetrahedral"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
}

func TestEstimateCancelledMidMonteCarlo(t *testing.T) {
	p, err := Synthesize(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.Estimate(ctx, EstimateOptions{
		Rates:    []float64{1e-2},
		MaxOrder: 2,
		Samples:  1000,
		MCShots:  500_000_000, // minutes of sampling if not cancelled
		Workers:  2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
}

func TestServiceCachesAndCoalesces(t *testing.T) {
	svc := NewService(2)
	opts := Options{Code: "Steane"}

	p1, hit, err := svc.Protocol(bg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}

	// An equivalent (differently spelled) request must hit the cache and
	// return the identical protocol object.
	p2, hit, err := svc.Protocol(bg, Options{Code: "Steane", Prep: "HEU"})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second identical request missed the cache")
	}
	if p1 != p2 {
		t.Fatal("cache returned a different protocol object")
	}

	// Concurrent identical requests coalesce onto one synthesis.
	svc2 := NewService(2)
	var wg sync.WaitGroup
	protos := make([]*Protocol, 8)
	for i := range protos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := svc2.Protocol(bg, opts)
			if err != nil {
				t.Error(err)
			}
			protos[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range protos {
		if p != protos[0] {
			t.Fatal("coalesced requests returned different protocol objects")
		}
	}
	st := svc2.Stats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after coalesced burst: %+v, want 1 miss / 1 entry", st)
	}
	// Every request is accounted exactly once across the three buckets.
	if st.Hits+st.Misses+st.Coalesced != 8 {
		t.Fatalf("stats do not partition the burst: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("successful burst recorded failures: %+v", st)
	}

	// Failed synthesis must not poison the cache and must count as failed,
	// not as a hit.
	if _, _, err := svc.Protocol(bg, Options{Hx: []string{"110"}, Hz: []string{"011"}}); err == nil {
		t.Fatal("expected error for anticommuting custom code")
	}
	st = svc.Stats()
	if st.Entries != 1 {
		t.Fatalf("failed request left %d entries, want 1", st.Entries)
	}
	if st.Failed != 1 {
		t.Fatalf("failed request not counted: %+v", st)
	}
	if st.Hits != 1 {
		t.Fatalf("failed request miscounted as a hit: %+v", st)
	}
}

func TestServiceWaiterAbandonKeepsSynthesisAlive(t *testing.T) {
	// A waiter that joins an in-flight synthesis and cancels must return
	// immediately with ctx.Err() while the surviving waiter still gets the
	// protocol: abandoning a coalesced entry must not kill shared work.
	// Tetrahedral takes seconds to synthesize, so the join below reliably
	// lands mid-flight.
	svc := NewService(2)
	opts := Options{Code: "Tetrahedral"}

	type outcome struct {
		p   *Protocol
		err error
	}
	survivor := make(chan outcome, 1)
	go func() {
		p, _, err := svc.Protocol(bg, opts)
		survivor <- outcome{p, err}
	}()
	// Give the initiator a moment to create the entry, then join and
	// instantly abandon it.
	time.Sleep(50 * time.Millisecond)
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := svc.Protocol(cancelled, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter err = %v, want context.Canceled", err)
	}
	got := <-survivor
	if got.err != nil {
		t.Fatalf("surviving waiter failed: %v", got.err)
	}
	if got.p == nil {
		t.Fatal("surviving waiter got no protocol")
	}
	// The entry completed despite the abandoned waiter: a fresh request is
	// a plain cache hit.
	if _, hit, err := svc.Protocol(bg, opts); err != nil || !hit {
		t.Fatalf("post-abandon request: hit=%v err=%v, want cache hit", hit, err)
	}
}

func TestServiceAllWaitersGoneCancelsSynthesis(t *testing.T) {
	// When the only waiter abandons a slow synthesis, the SAT work is
	// cancelled and the slot cleared for retry.
	svc := NewService(2)
	opts := Options{Code: "Tetrahedral"} // seconds of synthesis

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Protocol(ctx, opts)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned synthesis must clear its slot promptly so the key
	// stays retryable (no permanently-poisoned entries).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if svc.Stats().Entries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned entry never cleared: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServiceEstimate(t *testing.T) {
	svc := NewService(2)
	opts := Options{Code: "Steane"}
	eo := EstimateOptions{Rates: []float64{1e-2}, MaxOrder: 2, Samples: 500}
	res, hit, err := svc.Estimate(bg, opts, eo)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first estimate reported a protocol cache hit")
	}
	if len(res.Points) != 1 || res.Points[0].PL <= 0 {
		t.Fatalf("bad estimate result: %+v", res)
	}
	if _, hit, _ = svc.Estimate(bg, opts, eo); !hit {
		t.Fatal("second estimate missed the protocol cache")
	}
}

func TestSynthesizeBatch(t *testing.T) {
	svc := NewService(2)
	items := []Options{
		{Code: "Steane"},
		{Code: "Shor"},
		{Code: "Steane", Prep: "HEU"}, // coalesces with item 0
		{Code: "NoSuchCode"},          // fails with ErrBadOptions
	}
	var mu sync.Mutex
	events := map[int][]string{}
	results := svc.SynthesizeBatch(bg, items, func(ev BatchEvent) {
		mu.Lock()
		events[ev.Index] = append(events[ev.Index], ev.Status)
		mu.Unlock()
	})
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for i := 0; i < 3; i++ {
		if results[i].Err != nil {
			t.Fatalf("item %d failed: %v", i, results[i].Err)
		}
		if results[i].Protocol == nil {
			t.Fatalf("item %d has no protocol", i)
		}
	}
	if results[0].Protocol != results[2].Protocol {
		t.Fatal("identical batch items did not share one synthesis")
	}
	if !errors.Is(results[3].Err, ErrBadOptions) {
		t.Fatalf("item 3 err = %v, want ErrBadOptions", results[3].Err)
	}
	for i := range items {
		evs := events[i]
		if len(evs) < 3 || evs[0] != BatchQueued || evs[1] != BatchSynthesizing {
			t.Fatalf("item %d events = %v, want queued, synthesizing, ...", i, evs)
		}
		terminal := evs[len(evs)-1]
		want := BatchDone
		if i == 3 {
			want = BatchError
		}
		if terminal != want {
			t.Fatalf("item %d terminal event = %q, want %q", i, terminal, want)
		}
	}
}

func TestSearchRoundTrip(t *testing.T) {
	// A tiny search that terminates fast: the [[4,2,2]] C4 parameters.
	fc, err := Search(bg, SearchOptions{N: 4, K: 2, D: 2, SelfDual: true, Seed: 1, MaxTries: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if fc.DX < 2 || fc.DZ < 2 {
		t.Fatalf("found code below target distance: %+v", fc)
	}
	// The found rows must plug straight back into synthesis options.
	if _, err := (Options{Hx: fc.Hx, Hz: fc.Hz}).Key(); err != nil {
		t.Fatal(err)
	}
	_, err = Search(bg, SearchOptions{N: 4, K: 2, D: 2, Mode: "banana"})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown search mode: err = %v, want ErrBadOptions", err)
	}
	// A cancelled search reports the cancellation, not budget exhaustion.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	_, err = Search(cancelled, SearchOptions{N: 12, K: 2, D: 4, SelfDual: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search err = %v, want context.Canceled", err)
	}
}

func TestLogGrid(t *testing.T) {
	grid, err := LogGrid(1e-4, 1e-1, 13)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(got, want float64) bool { return got > want*(1-1e-9) && got < want*(1+1e-9) }
	if len(grid) != 13 || !approx(grid[0], 1e-4) || !approx(grid[12], 1e-1) {
		t.Fatalf("13-point grid wrong: %v", grid)
	}
	// points == 1 is the documented single-point grid {lo}.
	if one, err := LogGrid(1e-3, 1e-1, 1); err != nil || len(one) != 1 || one[0] != 1e-3 {
		t.Fatalf("single-point grid = %v, %v; want {1e-3}", one, err)
	}
	for name, call := range map[string]func() ([]float64, error){
		"lo==0":     func() ([]float64, error) { return LogGrid(0, 1e-1, 5) },
		"lo<0":      func() ([]float64, error) { return LogGrid(-1, 1e-1, 5) },
		"hi<lo":     func() ([]float64, error) { return LogGrid(1e-1, 1e-4, 5) },
		"points==0": func() ([]float64, error) { return LogGrid(1e-4, 1e-1, 0) },
	} {
		if _, err := call(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", name, err)
		}
	}
}

func TestCodeNames(t *testing.T) {
	names := CodeNames()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	found := false
	for _, n := range names {
		if n == "Steane" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Steane missing from catalog names %v", names)
	}
}
