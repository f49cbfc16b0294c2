package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/f2"
)

func TestSteaneProtocolMatchesTableI(t *testing.T) {
	p, err := Build(context.Background(), code.Steane(), Config{Prep: PrepHeuristic, Verif: VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	m := p.ComputeMetrics()
	if len(m.Layers) != 1 {
		t.Fatalf("Steane needs one layer, got %d", len(m.Layers))
	}
	l := m.Layers[0]
	if l.AncM != 1 || l.CNOTM != 3 || l.AncF != 0 {
		t.Fatalf("verification: am=%d wm=%d af=%d, want 1,3,0", l.AncM, l.CNOTM, l.AncF)
	}
	if len(l.Branches) != 1 || l.Branches[0].Anc != 1 || l.Branches[0].CNOTs != 3 {
		t.Fatalf("correction branches %v, want single [1]/[3]", l.Branches)
	}
	if m.SumAnc != 1 || m.SumCNOT != 3 {
		t.Fatalf("totals %d/%d, want 1/3", m.SumAnc, m.SumCNOT)
	}
	if m.AvgAnc != 1 || m.AvgCNOT != 3 {
		t.Fatalf("averages %.2f/%.2f, want 1/3", m.AvgAnc, m.AvgCNOT)
	}
}

func TestSteaneOptPrep(t *testing.T) {
	p, err := Build(context.Background(), code.Steane(), Config{Prep: PrepOptimal, Verif: VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Prep.CNOTCount(); got != 8 {
		t.Fatalf("optimal Steane prep has %d CNOTs, want 8", got)
	}
	m := p.ComputeMetrics()
	if m.Layers[0].AncM != 1 || m.Layers[0].CNOTM != 3 {
		t.Fatalf("verification after optimal prep: %+v", m.Layers[0])
	}
}

func TestSingleLayerCodes(t *testing.T) {
	// For these codes, the zero state admits a single verification layer:
	// either no dangerous Z errors exist (Steane, Surface) or all Z errors
	// are stabilizer-equivalent to weight <= 1 (Shor's GHZ blocks,
	// ReedMuller15's Z-heavy stabilizer group).
	for _, cs := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.ReedMuller15(), code.Hamming15()} {
		p, err := Build(context.Background(), cs, Config{})
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		if len(p.Layers) != 1 {
			t.Fatalf("%s: %d layers, want 1", cs.Name, len(p.Layers))
		}
		if p.Layers[0].Detects != code.ErrX {
			t.Fatalf("%s: first layer detects %v", cs.Name, p.Layers[0].Detects)
		}
	}
}

func TestTwoLayerCodes(t *testing.T) {
	for _, cs := range []*code.CSS{code.CSS11(), code.Carbon()} {
		p, err := Build(context.Background(), cs, Config{})
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		if len(p.Layers) != 2 {
			t.Fatalf("%s: %d layers, want 2", cs.Name, len(p.Layers))
		}
		if p.Layers[1].Detects != code.ErrZ {
			t.Fatalf("%s: second layer detects %v", cs.Name, p.Layers[1].Detects)
		}
		// The last layer must flag every measurement with dangerous hooks;
		// at least the classes must cover every reachable signature (the
		// exhaustive FT check in internal/sim validates the rest).
		if len(p.Layers[1].Classes) == 0 {
			t.Fatalf("%s: second layer has no correction classes", cs.Name)
		}
	}
}

func TestVerificationMeasuresStateStabilizers(t *testing.T) {
	p, err := Build(context.Background(), code.CSS11(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cs := p.Code
	for li, l := range p.Layers {
		det := cs.DetectionGroup(l.Detects)
		for mi, m := range l.Verif {
			if !det.InSpan(m.Stab) {
				t.Fatalf("layer %d measurement %d outside the detection group", li, mi)
			}
			if m.Kind != l.Detects.Opposite() {
				t.Fatalf("layer %d measurement %d has operator type %v", li, mi, m.Kind)
			}
		}
	}
}

func TestCorrectionBlocksWellFormed(t *testing.T) {
	p, err := Build(context.Background(), code.Carbon(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range p.Layers {
		det := p.Code.DetectionGroup(l.Detects)
		hookDet := p.Code.DetectionGroup(l.Detects.Opposite())
		for key, cc := range l.Classes {
			if cc.Primary == nil {
				t.Fatalf("layer %d class %s lacks a primary block", li, key)
			}
			for _, s := range cc.Primary.Stabs {
				if !det.InSpan(s) {
					t.Fatalf("layer %d class %s primary stab outside group", li, key)
				}
			}
			if cc.Hook != nil {
				for _, s := range cc.Hook.Stabs {
					if !hookDet.InSpan(s) {
						t.Fatalf("layer %d class %s hook stab outside group", li, key)
					}
				}
			}
			// Flag-free classes must not carry hook corrections.
			if !strings.Contains(cc.Sig.F, "1") && cc.Hook != nil {
				t.Fatalf("layer %d class %s has a hook block without a flag", li, key)
			}
		}
	}
}

func TestGlobalNotWorseThanOpt(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3()} {
		opt, err := Build(context.Background(), cs, Config{Verif: VerifOptimal})
		if err != nil {
			t.Fatalf("%s opt: %v", cs.Name, err)
		}
		glob, err := Build(context.Background(), cs, Config{Verif: VerifGlobal, GlobalLimit: 8})
		if err != nil {
			t.Fatalf("%s global: %v", cs.Name, err)
		}
		mo, mg := opt.ComputeMetrics(), glob.ComputeMetrics()
		if mg.AvgCNOT > mo.AvgCNOT+1e-9 {
			t.Fatalf("%s: global ∅CNOT %.3f worse than opt %.3f", cs.Name, mg.AvgCNOT, mo.AvgCNOT)
		}
	}
}

func TestAppendMeasurementShape(t *testing.T) {
	// Z-type weight-4 flagged measurement: 1 anc prep + 4 data CNOTs +
	// 1 flag prep + 2 flag CNOTs + flag meas + anc meas.
	c := circuit.New(6) // 4 data + anc + flag
	m := Measurement{Stab: f2.FromSupport(6, 0, 1, 2, 3), Kind: code.ErrZ, Flagged: true}
	out, fbit := AppendMeasurement(c, m, 4, 5)
	if fbit < 0 {
		t.Fatal("flag bit missing")
	}
	if out == fbit {
		t.Fatal("bits collide")
	}
	cnots := c.CNOTCount()
	if cnots != 6 {
		t.Fatalf("flagged weight-4 measurement uses %d CNOTs, want 6", cnots)
	}
	if c.NumBits != 2 {
		t.Fatalf("expected 2 classical bits, got %d", c.NumBits)
	}
	// Unflagged: 4 CNOTs, one bit.
	c2 := circuit.New(5)
	m2 := Measurement{Stab: f2.FromSupport(5, 0, 1, 2, 3), Kind: code.ErrX}
	out2, fbit2 := AppendMeasurement(c2, m2, 4, -1)
	if fbit2 != -1 || out2 != 0 {
		t.Fatalf("unflagged measurement bits: %d %d", out2, fbit2)
	}
	if c2.CNOTCount() != 4 {
		t.Fatalf("unflagged weight-4 measurement uses %d CNOTs", c2.CNOTCount())
	}
}

func TestSignature(t *testing.T) {
	s := Signature{B: "010", F: "000"}
	if s.IsZero() {
		t.Fatal("non-zero signature reported zero")
	}
	if (Signature{B: "000", F: "00"}).IsZero() == false {
		t.Fatal("zero signature reported non-zero")
	}
	if s.Key() != "010|000" {
		t.Fatalf("key = %q", s.Key())
	}
}

func TestMethodStrings(t *testing.T) {
	if PrepHeuristic.String() != "Heu" || PrepOptimal.String() != "Opt" {
		t.Fatal("prep method strings")
	}
	if VerifOptimal.String() != "Opt" || VerifGlobal.String() != "Global" {
		t.Fatal("verif method strings")
	}
}

func TestChooseOrderDefusesSteaneHooks(t *testing.T) {
	cs := code.Steane()
	// The weight-3 logical Z measurement has only benign hooks for a
	// correct ordering (suffixes reduce via Z_L).
	zl := f2.FromSupport(7, 0, 1, 2)
	_, dangerous, err := chooseOrder(context.Background(), cs, code.ErrZ, zl)
	if err != nil {
		t.Fatal(err)
	}
	if dangerous != 0 {
		t.Fatalf("Steane Z_L measurement has %d dangerous hooks", dangerous)
	}
}

func TestBuildFromPrepRejectsWrongCircuit(t *testing.T) {
	cs := code.Steane()
	bad := circuit.New(7)
	for q := 0; q < 7; q++ {
		bad.AppendPrepZ(q) // |0000000> is not |0>_L
	}
	if _, err := BuildFromPrep(context.Background(), cs, bad, Config{}); err == nil {
		t.Fatal("expected rejection of non-encoding circuit")
	}
}

// css16BuildTime is the shorter duration of two uncancelled [[16,2,4]]
// builds (the first pays for warming up), timed once per test binary so
// that -count=N pays for it once.
var css16BuildTime = sync.OnceValues(func() (time.Duration, error) {
	var best time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := Build(context.Background(), code.CSS16(), Config{}); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
})

// TestBuildCancelJoinsHelpers cancels a [[16,2,4]] build halfway and at
// three quarters of its uncancelled duration, while its correction problems
// are solved on the spare cores and when only its largest class is left.
// Build must return the context's error, and every helper of the problem
// fan-out must be joined before it returns: no goroutine is left in the
// synthesis, every spare-core token is free again, and the goroutine count
// goes back to its baseline. Each helper parks in helperDone until the
// goroutine stacks show solveAll waiting for it, so a solveAll that
// returned without joining its helpers fails here on every run, with or
// without -race.
func TestBuildCancelJoinsHelpers(t *testing.T) {
	full, err := css16BuildTime()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { helperDone = nil })
	for _, at := range []time.Duration{full / 2, full * 3 / 4} {
		base := runtime.NumGoroutine()
		parked := make(chan struct{}, cap(spare)) // one send per helper, at most one per token
		release := make(chan struct{})
		var releaseOnce sync.Once
		free := func() { releaseOnce.Do(func() { close(release) }) }
		helperDone = func() {
			parked <- struct{}{}
			<-release
		}
		ctx, cancel := context.WithTimeout(context.Background(), at)
		done := make(chan error, 1)
		go func() {
			_, err := Build(ctx, code.CSS16(), Config{})
			done <- err
		}()
		select {
		case err = <-done:
		case <-parked:
			// A helper is held: Build must not return until the stacks show
			// solveAll waiting for it.
			for !solveAllWaiting() {
				select {
				case <-done:
					free()
					t.Fatalf("cancelled at %v: Build returned while a fan-out helper was still running", at)
				case <-time.After(time.Millisecond):
				}
			}
			free()
			err = <-done
		}
		if err == nil && at > full/2 {
			// This run beat the timed one; the late point was not reached.
			cancel()
			t.Logf("build finished before its cancellation at %v of %v", at, full)
			continue
		}
		if !errors.Is(err, ctx.Err()) || ctx.Err() == nil {
			free()
			t.Fatalf("Build cancelled at %v of %v: error %v, want %v", at, full, err, ctx.Err())
		}
		cancel()
		live := synthesisGoroutines()
		free()
		if len(live) > 0 {
			t.Fatalf("cancelled at %v: %d goroutines still synthesizing after Build returned:\n%s", at, len(live), live[0])
		}
		if held := len(spare); held != 0 {
			t.Fatalf("cancelled at %v: %d spare-core tokens still held", at, held)
		}

		// The context's timer goroutine may still be exiting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("cancelled at %v: %d goroutines, %d before the build", at, n, base)
		}
	}
}

// solveAllWaiting reports whether some goroutine is in solveAll, waiting
// for its helpers.
func solveAllWaiting() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Wait(") && strings.Contains(g, "repro/internal/core.solveAll(") {
			return true
		}
	}
	return false
}

// synthesisGoroutines returns the stacks of the goroutines other than the
// caller's that are still solving correction problems. A helper
// whose WaitGroup has released its waiter may still be inside Done, with its
// work returned and its token back; it no longer counts.
func synthesisGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "sync.(*WaitGroup).Done(") {
			continue
		}
		for _, frame := range []string{"repro/internal/core.solveAll", "repro/internal/correct.(*class)", "repro/internal/cnf.", "repro/internal/sat."} {
			if strings.Contains(g, frame) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// IsZero reports whether nothing fired.
func (s Signature) IsZero() bool {
	return !strings.ContainsRune(s.B, '1') && !strings.ContainsRune(s.F, '1')
}

// TestCheapestCandidate checks the candidate loop of global verification:
// the first of equally cheap protocols wins, a failed candidate is skipped
// and its error returned only when every candidate fails, a done context
// stops the loop with its error, and an empty list is an error.
func TestCheapestCandidate(t *testing.T) {
	ctx := context.Background()
	p, err := Build(ctx, code.Steane(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	twin := *p
	first, second := errors.New("first"), errors.New("second")
	built := 0
	build := func(v []f2.Vec) (*Protocol, error) {
		built++
		switch len(v) {
		case 0:
			return nil, first
		case 1:
			return p, nil
		case 2:
			return &twin, nil
		}
		return nil, second
	}
	one, two, three := make([]f2.Vec, 1), make([]f2.Vec, 2), make([]f2.Vec, 3)
	if got, err := cheapest(ctx, [][]f2.Vec{nil, one, two}, build); err != nil || got != p {
		t.Fatalf("tie: got %p, %v; want the first cheapest %p", got, err, p)
	}
	if _, err := cheapest(ctx, [][]f2.Vec{nil, three}, build); !errors.Is(err, first) {
		t.Fatalf("every candidate failed: err %v, want the first failure", err)
	}
	if _, err := cheapest(ctx, nil, build); err == nil {
		t.Fatal("no candidates: no error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	built = 0
	if _, err := cheapest(cancelled, [][]f2.Vec{one}, build); !errors.Is(err, context.Canceled) || built != 0 {
		t.Fatalf("done context: err %v after %d builds, want context.Canceled before any", err, built)
	}
}
