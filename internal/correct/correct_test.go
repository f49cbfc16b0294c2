package correct

import (
	"context"
	"testing"

	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/prep"
	"repro/internal/verify"
)

func vec(s string) f2.Vec { return f2.MustFromString(s) }

func TestEmptyClass(t *testing.T) {
	det := f2.MustMatFromStrings("1100")
	red := f2.MustMatFromStrings("0011")
	blk, err := Synthesize(context.Background(), det, red, nil)
	if err != nil || blk.Ancillas() != 0 {
		t.Fatalf("empty class should give trivial block: %v %v", blk, err)
	}
}

func TestSingleErrorNeedsNoMeasurement(t *testing.T) {
	// One dangerous error alone: recovery c = e, no measurements.
	det := f2.MustMatFromStrings("110000", "001100", "000011")
	red := f2.NewMat(6) // trivial reduction group
	errs := []f2.Vec{vec("110000")}
	blk, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 0 {
		t.Fatalf("expected u=0, got %d measurements", blk.Ancillas())
	}
	c := blk.RecoveryFor("", 6)
	if res := c.Xor(errs[0]); res.Weight() > 1 {
		t.Fatalf("recovery leaves weight %d", res.Weight())
	}
}

func TestZeroErrorKeepsRecoveryLight(t *testing.T) {
	// Class contains the zero error (measurement fault): the shared
	// recovery must itself be weight <= 1 while also fixing X1X2.
	det := f2.MustMatFromStrings("110000")
	red := f2.NewMat(6)
	errs := []f2.Vec{vec("000000"), vec("110000")}
	blk, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 0 {
		t.Fatalf("u=0 should suffice, got %d", blk.Ancillas())
	}
	c := blk.RecoveryFor("", 6)
	if c.Weight() > 1 {
		t.Fatalf("recovery weight %d endangers the clean state", c.Weight())
	}
	if c.Xor(vec("110000")).Weight() > 1 {
		t.Fatalf("recovery does not fix the dangerous error")
	}
}

func TestDisjointErrorsNeedMeasurement(t *testing.T) {
	// X1X2 and X3X4 cannot share a recovery with a trivial reduction
	// group, so at least one distinguishing measurement is required.
	det := f2.MustMatFromStrings(
		"100000",
		"001000",
	)
	red := f2.NewMat(6)
	errs := []f2.Vec{vec("110000"), vec("001100")}
	blk, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 1 {
		t.Fatalf("expected u=1, got %d", blk.Ancillas())
	}
	// Both errors must land in different cells and be corrected.
	k1, k2 := blk.SyndromeOf(errs[0]), blk.SyndromeOf(errs[1])
	if k1 == k2 {
		t.Fatal("errors share a syndrome cell but need different recoveries")
	}
	for _, e := range errs {
		c := blk.RecoveryFor(blk.SyndromeOf(e), 6)
		if c.Xor(e).Weight() > 1 {
			t.Fatalf("error %v not corrected", e)
		}
	}
}

func TestWeightMinimized(t *testing.T) {
	// Both a weight-1 and weight-3 detector distinguish the errors; the
	// cheap one must be chosen.
	det := f2.MustMatFromStrings(
		"100000",
		"101100", // heavier alternative distinguishing the same pair
	)
	red := f2.NewMat(6)
	errs := []f2.Vec{vec("110000"), vec("001100")}
	blk, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 1 || blk.CNOTs() != 1 {
		t.Fatalf("got u=%d v=%d, want 1,1", blk.Ancillas(), blk.CNOTs())
	}
}

func TestReductionGroupUsed(t *testing.T) {
	// e = X1X2X3X4 equals a stabilizer: already trivial, recovery 0 must
	// work and the zero error in the class keeps it honest.
	det := f2.MustMatFromStrings("110000")
	red := f2.MustMatFromStrings("111100")
	errs := []f2.Vec{vec("111100"), vec("000000")}
	blk, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 0 {
		t.Fatalf("u=%d, want 0", blk.Ancillas())
	}
	c := blk.RecoveryFor("", 6)
	if f2.CosetMinWeight(c, red) > 1 {
		t.Fatal("recovery endangers clean state")
	}
	if f2.CosetMinWeight(c.Xor(vec("111100")), red) > 1 {
		t.Fatal("stabilizer-equivalent error not reduced")
	}
}

func TestSteaneCorrectionMatchesTable(t *testing.T) {
	// End-to-end against Table I: the Steane branch correction uses 1
	// ancilla and 3 CNOTs.
	cs := code.Steane()
	circ := prep.Heuristic(cs)
	ex := verify.DangerousErrors(cs, circ, code.ErrX)
	ver, err := verify.Synthesize(context.Background(), cs.DetectionGroup(code.ErrX), ex)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Ancillas() != 1 {
		t.Fatalf("verification ancillas = %d", ver.Ancillas())
	}
	stab := ver.Stabs[0]
	// Build the triggered class: all single-fault X errors with odd
	// overlap with the verification measurement, plus the pure
	// measurement error (zero data error).
	seen := map[string]bool{}
	class := []f2.Vec{f2.NewVec(cs.N)}
	seen[class[0].Key()] = true
	for _, f := range circ.SingleFaults() {
		if f.Final.X.IsZero() {
			continue
		}
		rep := cs.CosetRep(code.ErrX, f.Final.X)
		if stab.Dot(rep) != 1 || seen[rep.Key()] {
			continue
		}
		seen[rep.Key()] = true
		class = append(class, rep)
	}
	blk, err := Synthesize(context.Background(), cs.DetectionGroup(code.ErrX), cs.ReductionGroup(code.ErrX), class)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(blk, cs, code.ErrX, class); err != nil {
		t.Fatal(err)
	}
	if blk.Ancillas() != 1 || blk.CNOTs() != 3 {
		t.Fatalf("Steane correction: %d ancillas %d CNOTs, want 1 and 3 (Table I)",
			blk.Ancillas(), blk.CNOTs())
	}
}

func TestCheckDetectsBadBlock(t *testing.T) {
	cs := code.Steane()
	blk := &Block{Recovery: map[string]f2.Vec{"": f2.NewVec(7)}}
	bad := []f2.Vec{f2.FromSupport(7, 0, 3)} // weight-2, no recovery
	if w := cs.ReducedWeight(code.ErrX, bad[0]); w < 2 {
		t.Skip("chosen error unexpectedly benign")
	}
	if err := Check(blk, cs, code.ErrX, bad); err == nil {
		t.Fatal("Check accepted a non-correcting block")
	}
}
