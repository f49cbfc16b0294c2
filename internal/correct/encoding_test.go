package correct

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/stabsel"
)

// tableClass is one line of testdata/classes.txt, or one seeded random
// class.
type tableClass struct {
	name string
	cs   *code.CSS
	kind code.ErrType
	errs []f2.Vec
}

func loadTableClasses(t testing.TB) []tableClass {
	t.Helper()
	data, err := os.ReadFile("testdata/classes.txt")
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]*code.CSS{}
	var out []tableClass
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || (f[1] != "X" && f[1] != "Z") {
			t.Fatalf("classes.txt:%d: malformed line %q", i+1, line)
		}
		cs := codes[f[0]]
		if cs == nil {
			if cs, err = code.ByName(f[0]); err != nil {
				t.Fatal(err)
			}
			codes[f[0]] = cs
		}
		tc := tableClass{name: fmt.Sprintf("%s-%s-line%d", f[0], f[1], i+1), cs: cs, kind: code.ErrX}
		if f[1] == "Z" {
			tc.kind = code.ErrZ
		}
		for _, s := range strings.Split(f[2], ",") {
			tc.errs = append(tc.errs, vec(s))
		}
		out = append(out, tc)
	}
	return out
}

// probeSearch is the reference (u, v) search, the loop Synthesize ran
// before it extracted once per class: u upward from 0 to maxU, then a
// binary search on v below the unbounded block's weight for the first
// feasible u, with every probe, weighted ones included, answered by probe
// itself (nil: UNSAT). With a probe that decides and then extracts, it
// returns the block Synthesize returned then.
func probeSearch(maxU int, probe func(u, v int) (*Block, error)) (*Block, error) {
	for u := 0; u <= maxU; u++ {
		blk, err := probe(u, -1)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			continue
		}
		best := blk
		lo, hi := u, best.CNOTs()-1
		for lo <= hi {
			mid := (lo + hi) / 2
			cand, err := probe(u, mid)
			if err != nil {
				return nil, err
			}
			if cand == nil {
				lo = mid + 1
			} else {
				best = cand
				hi = cand.CNOTs() - 1
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("no correction with up to %d measurements", maxU)
}

// classOf is the class of errs over the RREF bases of cs's groups for kind.
func classOf(cs *code.CSS, kind code.ErrType, errs []f2.Vec) *class {
	return newClass(cs.DetectionGroup(kind).SpanBasis(), cs.ReductionGroup(kind).SpanBasis(), errs)
}

// differential runs the reference search over one class with a probe that
// solves every (u, v) with both encodings on fresh solvers, and returns the
// probe count. It fails the test when the encodings disagree, when a
// recovery-encoding model does not correct the class, or when the pair
// table disagrees with wt_S. Synthesize must then reach the reference's
// (u*, v*) with a block of weight exactly v* that corrects the class.
func differential(t *testing.T, cs *code.CSS, kind code.ErrType, errs []f2.Vec) int {
	t.Helper()
	ctx := context.Background()
	red := cs.ReductionGroup(kind)
	c := classOf(cs, kind, errs)
	for _, p := range c.pairs {
		if want := f2.CosetMinWeight(errs[p.k1].Xor(errs[p.k2]), red) <= 2; p.compatible != want {
			t.Errorf("pair %v, %v: compatible = %v, want %v", errs[p.k1], errs[p.k2], p.compatible, want)
		}
	}
	probes := 0
	ref, refErr := probeSearch(c.gens.Rows(), func(u, v int) (*Block, error) {
		probes++
		ok, err := c.decideCorrection(ctx, u, v)
		if err != nil {
			return nil, err
		}
		blk, extracted, err := c.extractCorrection(ctx, u, v)
		if err != nil {
			return nil, err
		}
		if ok != extracted {
			t.Errorf("u=%d v=%d: residual encoding SAT=%v, recovery encoding SAT=%v", u, v, ok, extracted)
		}
		if extracted {
			if err := Check(blk, cs, kind, errs); err != nil {
				t.Errorf("u=%d v=%d: %v", u, v, err)
			}
		}
		return blk, nil
	})
	checkOptimum(t, cs, kind, errs, ref, refErr)
	return probes
}

// checkOptimum fails the test unless Synthesize ends where the reference
// search did: both without a correction, or on (u*, v*) with a block of
// weight exactly v* that Check accepts.
func checkOptimum(t *testing.T, cs *code.CSS, kind code.ErrType, errs []f2.Vec, ref *Block, refErr error) {
	t.Helper()
	got, err := Synthesize(context.Background(), cs.DetectionGroup(kind), cs.ReductionGroup(kind), errs)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("reference search: %v; Synthesize: %v", refErr, err)
	}
	if err != nil {
		return
	}
	if got.Ancillas() != ref.Ancillas() || got.CNOTs() != ref.CNOTs() {
		t.Errorf("Synthesize reached (u, v) = (%d, %d), the reference search (%d, %d)", got.Ancillas(), got.CNOTs(), ref.Ancillas(), ref.CNOTs())
	}
	if err := Check(got, cs, kind, errs); err != nil {
		t.Errorf("Synthesize's block: %v", err)
	}
}

// decideCorrection is the reference for the search's answers: a
// residual-encoding decide of the (u, v) probe on a fresh solver, with the
// RREF break for an unbounded probe and the lex break under a weight bound.
func (c *class) decideCorrection(ctx context.Context, u, v int) (bool, error) {
	return c.decide(ctx, u, v, v < 0)
}

// TestEncodingsAgreeOnTableClasses decides every probe the reference search
// makes on every class of the Table I option sets with both encodings, and
// holds Synthesize to the reference's optimum.
func TestEncodingsAgreeOnTableClasses(t *testing.T) {
	classes := loadTableClasses(t)
	probes := 0
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			probes += differential(t, tc.cs, tc.kind, tc.errs)
		})
	}
	t.Logf("%d classes, %d probes", len(classes), probes)
}

// TestReusedBuilderMatchesFresh runs the search of every Table I class
// twice: with a new builder for each solve, and on one builder that every
// solve of every class resets and reuses, as each Synthesize call does with
// its own. Both must end on the same block: a reset that left state behind
// would change the solver's models, and the blocks are those models.
func TestReusedBuilderMatchesFresh(t *testing.T) {
	ctx := context.Background()
	shared := cnf.NewBuilder()
	for _, tc := range loadTableClasses(t) {
		want, wantErr := classOf(tc.cs, tc.kind, tc.errs).search(ctx).run()
		reused := classOf(tc.cs, tc.kind, tc.errs)
		reused.b = shared
		got, gotErr := reused.search(ctx).run()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: reused builder: %v; fresh builders: %v", tc.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused builder gave %v, fresh builders %v", tc.name, got, want)
		}
	}
}

// bare6 has no X stabilizers: it leaves X errors unreduced and lets every
// Z measurement detect them.
var bare6 = code.MustNew("bare6", f2.NewMat(6), f2.MustMatFromStrings("110000"))

// pairwiseOnly is pairwise compatible, yet no recovery serves all four of
// its errors: only the residual constraints, not the pair compatibility,
// rule out u = 0.
var pairwiseOnly = []f2.Vec{vec("000000"), vec("110000"), vec("101000"), vec("011000")}

// randomClasses returns 200 seeded random small classes on small codes,
// including classes no correction can serve.
func randomClasses() []tableClass {
	rng := rand.New(rand.NewSource(7))
	codes := []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.C4(), code.C6(), bare6}
	var out []tableClass
	for i := 0; i < 200; i++ {
		cs := codes[rng.Intn(len(codes))]
		kind := code.ErrType(rng.Intn(2))
		size := 1 + rng.Intn(7)
		seen := map[string]bool{}
		var errs []f2.Vec
		for try := 0; try < 4*size && len(errs) < size; try++ {
			e := f2.NewVec(cs.N)
			for w := rng.Intn(4); w > 0; w-- {
				e.Flip(rng.Intn(cs.N))
			}
			if rep := cs.CosetRep(kind, e); !seen[rep.Key()] {
				seen[rep.Key()] = true
				errs = append(errs, rep)
			}
		}
		out = append(out, tableClass{
			name: fmt.Sprintf("%d-%s-%v", i, cs.Name, kind),
			cs:   cs, kind: kind, errs: errs,
		})
	}
	return out
}

// TestEncodingsAgreeOnRandomClasses runs the encoding differential on the
// random classes and on pairwiseOnly.
func TestEncodingsAgreeOnRandomClasses(t *testing.T) {
	differential(t, bare6, code.ErrX, pairwiseOnly)
	for _, tc := range randomClasses() {
		t.Run(tc.name, func(t *testing.T) {
			differential(t, tc.cs, tc.kind, tc.errs)
		})
	}
}

// TestMinWeightMatchesProbes holds the least weight v*, at which Synthesize
// extracts, to fresh weighted decides on every table class, every random
// class and pairwiseOnly. At the first feasible u > 0, a fresh lex decide
// must be SAT at v* and UNSAT at v* − 1, and every weighted probe of the
// reference search, which decides each probe on a fresh solver, must answer
// v ≥ v*. Synthesize must reach the reference's optimum.
func TestMinWeightMatchesProbes(t *testing.T) {
	ctx := context.Background()
	checked := 0
	classes := allClasses(t)
	for _, tc := range classes {
		c := classOf(tc.cs, tc.kind, tc.errs)
		vstar := map[int]int{}
		ref, refErr := probeSearch(c.gens.Rows(), func(u, v int) (*Block, error) {
			ok, err := c.decideCorrection(ctx, u, v)
			if err != nil {
				return nil, err
			}
			if v < 0 && ok && u > 0 {
				checked++
				vmin, err := c.least(ctx, u)
				if err != nil {
					return nil, err
				}
				vstar[u] = vmin
				for _, w := range []int{vmin - 1, vmin} {
					if lex, err := c.decide(ctx, u, w, false); err != nil || lex != (w == vmin) {
						t.Errorf("%s u=%d: v*=%d, but the lex decide at v=%d answers SAT=%v (err %v)", tc.name, u, vmin, w, lex, err)
					}
				}
			}
			if v >= 0 {
				if vmin := vstar[u]; ok != (v >= vmin) {
					t.Errorf("%s u=%d v=%d: fresh decide SAT=%v, but v*=%d", tc.name, u, v, ok, vmin)
				}
			}
			if !ok {
				return nil, nil
			}
			blk, _, err := c.extractCorrection(ctx, u, v)
			return blk, err
		})
		t.Run(tc.name, func(t *testing.T) { checkOptimum(t, tc.cs, tc.kind, tc.errs, ref, refErr) })
	}
	t.Logf("%d classes, v* checked on %d", len(classes), checked)
}

// allClasses is every table class, every random class and pairwiseOnly.
func allClasses(t testing.TB) []tableClass {
	classes := append(loadTableClasses(t), randomClasses()...)
	return append(classes, tableClass{name: "pairwise-only", cs: bare6, kind: code.ErrX, errs: pairwiseOnly})
}

// TestOneExtractionPerClass wraps the search's solves on every class of
// allClasses: a class with a correction is extracted exactly once, at the
// least weight of the first feasible u, and a class without one never.
func TestOneExtractionPerClass(t *testing.T) {
	ctx := context.Background()
	for _, tc := range allClasses(t) {
		s := classOf(tc.cs, tc.kind, tc.errs).search(ctx)
		var extracts, leasts, lastU, lastV int
		extract, least := s.extract, s.least
		s.extract = func(u, v int) (*Block, bool, error) {
			extracts++
			lastU, lastV = u, v
			return extract(u, v)
		}
		s.least = func(u int) (int, error) {
			leasts++
			return least(u)
		}
		blk, err := s.run()
		if errors.Is(err, stabsel.ErrMismatch) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ok := err == nil // otherwise the class has no correction
		switch {
		case !ok && extracts+leasts != 0:
			t.Errorf("%s: no correction, yet %d extractions and %d least-weight solves", tc.name, extracts, leasts)
		case ok && extracts != 1:
			t.Errorf("%s: %d extractions, want 1", tc.name, extracts)
		case ok && (lastU != blk.Ancillas() || leasts != min(lastU, 1) || (lastU > 0 && lastV != blk.CNOTs())):
			t.Errorf("%s: extracted at (%d, %d) after %d least-weight solves, block (%d, %d)", tc.name, lastU, lastV, leasts, blk.Ancillas(), blk.CNOTs())
		}
	}
}

// TestRREFDecideMatchesLex decides every unbounded probe, u = 0..rank(det),
// of every table class, every random class, pairwiseOnly and pivotGap
// twice: with sel's symmetry broken by RREF, as decideCorrection does, and
// by the lex chain every other probe uses, the reference. The answers must
// agree.
func TestRREFDecideMatchesLex(t *testing.T) {
	for _, tc := range allClasses(t) {
		rrefMatchesLex(t, tc.name, classOf(tc.cs, tc.kind, tc.errs))
	}

	// pivotGap's four errors are pairwise incompatible and their syndromes
	// under the detection basis Z0, Z1, Z2 are 000, 001, 100 and 011. The
	// one 2-dimensional span that separates them is {000, 110, 001, 111},
	// whose RREF basis 110, 001 has its pivots two columns apart: an RREF
	// constraint that lost such spans would answer u = 2 wrongly.
	det := f2.MustMatFromStrings("100000000", "010000000", "001000000")
	pivotGap := []f2.Vec{vec("000000000"), vec("001111000"), vec("100000111"), vec("011100100")}
	rrefMatchesLex(t, "pivot-gap", newClass(det.SpanBasis(), f2.NewMat(9), pivotGap))
}

// rrefMatchesLex decides the unbounded probes u = 0..rank(det) of c with
// both symmetry breaks and reports every disagreement.
func rrefMatchesLex(t *testing.T, name string, c *class) {
	t.Helper()
	ctx := context.Background()
	for u := 0; u <= c.gens.Rows(); u++ {
		lex, err := c.decide(ctx, u, -1, false)
		if err != nil {
			t.Fatal(err)
		}
		rref, err := c.decide(ctx, u, -1, true)
		if err != nil {
			t.Fatal(err)
		}
		if lex != rref {
			t.Errorf("%s u=%d: lex SAT=%v, RREF SAT=%v", name, u, lex, rref)
		}
	}
}

// TestMaxUClampedToRank checks that the search caps the number of
// additional measurements at the rank of the detection group, not at its
// row count: more measurements than the rank cannot grow their span. X1X2
// and X3X4 share no recovery, and the only detector, Z1Z2 (listed twice,
// so two rows of rank 1), overlaps both evenly: no number of measurements
// separates them. The search must probe u = 0 and 1 only and find nothing,
// and Synthesize's error must name the rank.
func TestMaxUClampedToRank(t *testing.T) {
	ctx := context.Background()
	det := f2.MustMatFromStrings("110000", "110000")
	errs := []f2.Vec{vec("110000"), vec("001100")}
	s := newClass(det.SpanBasis(), f2.NewMat(6), errs).search(ctx)
	maxU := -1
	decide := s.decide
	s.decide = func(u int) (bool, error) {
		maxU = max(maxU, u)
		return decide(u)
	}
	for name, run := range map[string]func() (*Block, error){
		"search":     s.run,
		"Synthesize": func() (*Block, error) { return Synthesize(ctx, det, f2.NewMat(6), errs) },
	} {
		if blk, err := run(); blk != nil || err == nil || !strings.Contains(err.Error(), "detection rank 1") {
			t.Fatalf("inseparable class, %s: block %v, err %v; want an error naming detection rank 1", name, blk, err)
		}
	}
	if maxU != 1 {
		t.Fatalf("search probed up to u = %d, want the detection rank 1", maxU)
	}
}

// BenchmarkDecideUnbounded times the two costliest unbounded probes of the
// table classes: u = 3, v = -1 on the Hamming and Tetrahedral X classes,
// both UNSAT.
func BenchmarkDecideUnbounded(b *testing.B) {
	ctx := context.Background()
	found := 0
	for _, tc := range loadTableClasses(b) {
		if tc.kind != code.ErrX || (tc.cs.Name != "Hamming" && tc.cs.Name != "Tetrahedral") {
			continue
		}
		found++
		c := classOf(tc.cs, tc.kind, tc.errs)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, err := c.decideCorrection(ctx, 3, -1); err != nil || ok {
					b.Fatalf("u=3 v=-1: SAT=%v, err=%v; want UNSAT", ok, err)
				}
			}
		})
	}
	if found != 2 {
		b.Fatalf("found %d Hamming/Tetrahedral X classes, want 2", found)
	}
}

// TestEncodingMismatchIsAnError gives the search answers that contradict
// each other, and each must stop Synthesize with stabsel.ErrMismatch
// rather than end on a block or move on to a larger u:
//   - a residual encoding that treats every pair as sharing a recovery and
//     permits every pair of residuals answers u = 0 SAT, where the recovery
//     encoding answers UNSAT;
//   - a least weight one too low, at which the extraction is UNSAT;
//   - an extraction whose block is heavier than v*.
func TestEncodingMismatchIsAnError(t *testing.T) {
	ctx := context.Background()
	det := f2.MustMatFromStrings("100000", "001000")
	errs := []f2.Vec{vec("110000"), vec("001100")}
	c := newClass(det, f2.NewMat(6), errs)
	all := make([][]int, 7)
	for a := range all {
		for b := 0; b < 7; b++ {
			all[a] = append(all[a], b)
		}
	}
	for i := range c.pairs {
		c.pairs[i].compatible, c.pairs[i].next = true, all
	}
	if _, err := c.search(ctx).run(); !errors.Is(err, stabsel.ErrMismatch) {
		t.Errorf("permissive residual tables: err = %v, want stabsel.ErrMismatch", err)
	}

	s := newClass(det, f2.NewMat(6), errs).search(ctx)
	least := s.least
	s.least = func(u int) (int, error) {
		v, err := least(u)
		return v - 1, err
	}
	if _, err := s.run(); !errors.Is(err, stabsel.ErrMismatch) {
		t.Errorf("least weight one too low: err = %v, want stabsel.ErrMismatch", err)
	}

	s = newClass(det, f2.NewMat(6), errs).search(ctx)
	extract := s.extract
	s.extract = func(u, v int) (*Block, bool, error) {
		blk, ok, err := extract(u, v)
		if ok {
			blk.Stabs[0] = vec("111111")
		}
		return blk, ok, err
	}
	if _, err := s.run(); !errors.Is(err, stabsel.ErrMismatch) {
		t.Errorf("block heavier than v*: err = %v, want stabsel.ErrMismatch", err)
	}
}
