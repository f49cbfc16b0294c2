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

// probeSearch is the reference (u, v) search: u upward from 0 to maxU,
// then a binary search on v for the first feasible u, with every probe,
// weighted ones included, answered by probe itself (nil: UNSAT). It is the
// search as it ran before the least weight v* answered weighted probes, and
// stabsel.Search must end where it does.
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

// differential runs the reference search over one class with a probe that
// solves every (u, v) with both encodings on fresh solvers, and returns the
// probe count. It fails the test when the encodings disagree, when a
// recovery-encoding model does not correct the class, when the pair table
// disagrees with wt_S, or when Synthesize ends elsewhere.
func differential(t *testing.T, cs *code.CSS, kind code.ErrType, errs []f2.Vec) int {
	t.Helper()
	ctx := context.Background()
	det, red := cs.DetectionGroup(kind), cs.ReductionGroup(kind)
	c := newClass(det, red, errs)
	for _, p := range c.pairs {
		if want := f2.CosetMinWeight(errs[p.k1].Xor(errs[p.k2]), red) <= 2; p.compatible != want {
			t.Errorf("pair %v, %v: compatible = %v, want %v", errs[p.k1], errs[p.k2], p.compatible, want)
		}
	}
	probes := 0
	got, gotErr := probeSearch(c.gens.Rows(), func(u, v int) (*Block, error) {
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
	want, wantErr := Synthesize(ctx, det, red, errs)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("probe-by-probe search: %v; Synthesize: %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("Synthesize gave %v, the probe-by-probe search %v", want, got)
	}
	return probes
}

// decideCorrection is the reference for solveCorrection's answers: a
// residual-encoding decide of the (u, v) probe on a fresh solver, with the
// RREF break for an unbounded probe and the lex break under a weight bound.
func (c *class) decideCorrection(ctx context.Context, u, v int) (bool, error) {
	return c.decide(ctx, u, v, v < 0)
}

// TestEncodingsAgreeOnTableClasses decides every probe the search makes on
// every class of the Table I option sets with both encodings.
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
// twice: with a new builder for each probe, and on one builder that every
// probe of every class resets and reuses, as each Synthesize call does with
// its own. Both must end on the same block: a reset that left state behind
// would change the solver's models, and the blocks are those models.
func TestReusedBuilderMatchesFresh(t *testing.T) {
	ctx := context.Background()
	shared := cnf.NewBuilder()
	for _, tc := range loadTableClasses(t) {
		det, red := tc.cs.DetectionGroup(tc.kind), tc.cs.ReductionGroup(tc.kind)
		want, _, wantErr := newClass(det, red, tc.errs).search(ctx).Run()
		reused := newClass(det, red, tc.errs)
		reused.b = shared
		got, _, gotErr := reused.search(ctx).Run()
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

// TestMinWeightMatchesProbes holds the least weight v*, which answers
// Synthesize's weighted probes, to the fresh weighted decides it replaces,
// on every table class, every random class and pairwiseOnly. At the first
// feasible u > 0, a fresh lex decide must be SAT at v* and UNSAT at v* − 1,
// and every weighted probe of the reference search, which decides each
// probe on a fresh solver, must answer v ≥ v*. That search must end where
// Synthesize does.
func TestMinWeightMatchesProbes(t *testing.T) {
	ctx := context.Background()
	classes := append(loadTableClasses(t), randomClasses()...)
	classes = append(classes, tableClass{name: "pairwise-only", cs: bare6, kind: code.ErrX, errs: pairwiseOnly})
	checked := 0
	for _, tc := range classes {
		det, red := tc.cs.DetectionGroup(tc.kind), tc.cs.ReductionGroup(tc.kind)
		c := newClass(det, red, tc.errs)
		vstar := map[int]int{}
		got, gotErr := probeSearch(c.gens.Rows(), func(u, v int) (*Block, error) {
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
		want, wantErr := Synthesize(ctx, det, red, tc.errs)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: probe-by-probe search: %v; Synthesize: %v", tc.name, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Synthesize gave %v, the probe-by-probe search %v", tc.name, want, got)
		}
	}
	t.Logf("%d classes, v* checked on %d", len(classes), checked)
}

// TestRREFDecideMatchesLex decides every unbounded probe, u = 0..rank(det),
// of every table class, every random class, pairwiseOnly and pivotGap
// twice: with sel's symmetry broken by RREF, as decideCorrection does, and
// by the lex chain every other probe uses, the reference. The answers must
// agree.
func TestRREFDecideMatchesLex(t *testing.T) {
	classes := append(loadTableClasses(t), randomClasses()...)
	classes = append(classes, tableClass{name: "pairwise-only", cs: bare6, kind: code.ErrX, errs: pairwiseOnly})
	for _, tc := range classes {
		rrefMatchesLex(t, tc.name, newClass(tc.cs.DetectionGroup(tc.kind), tc.cs.ReductionGroup(tc.kind), tc.errs))
	}

	// pivotGap's four errors are pairwise incompatible and their syndromes
	// under the detection basis Z0, Z1, Z2 are 000, 001, 100 and 011. The
	// one 2-dimensional span that separates them is {000, 110, 001, 111},
	// whose RREF basis 110, 001 has its pivots two columns apart: an RREF
	// constraint that lost such spans would answer u = 2 wrongly.
	det := f2.MustMatFromStrings("100000000", "010000000", "001000000")
	pivotGap := []f2.Vec{vec("000000000"), vec("001111000"), vec("100000111"), vec("011100100")}
	rrefMatchesLex(t, "pivot-gap", newClass(det, f2.NewMat(9), pivotGap))
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
	s := newClass(det, f2.NewMat(6), errs).search(ctx)
	maxU := -1
	decide := s.Decide
	s.Decide = func(u int) (bool, error) {
		maxU = max(maxU, u)
		return decide(u)
	}
	if _, ok, err := s.Run(); ok || err != nil {
		t.Fatalf("inseparable class: search found a block (ok %v, err %v)", ok, err)
	}
	if maxU != 1 {
		t.Fatalf("search probed up to u = %d, want the detection rank 1", maxU)
	}
	_, err := Synthesize(ctx, det, f2.NewMat(6), errs)
	if err == nil || !strings.Contains(err.Error(), "detection rank 1") {
		t.Fatalf("inseparable class: err %v, want one naming detection rank 1", err)
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
		c := newClass(tc.cs.DetectionGroup(tc.kind), tc.cs.ReductionGroup(tc.kind), tc.errs)
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

// TestEncodingMismatchIsAnError makes the residual encoding treat every
// pair as sharing a recovery and permit every pair of residuals, so it
// answers SAT where the recovery encoding answers UNSAT. Synthesize must
// stop with stabsel.ErrMismatch, not read the probe as UNSAT and move on to
// a larger u.
func TestEncodingMismatchIsAnError(t *testing.T) {
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
	_, _, err := c.search(context.Background()).Run()
	if !errors.Is(err, stabsel.ErrMismatch) {
		t.Fatalf("err = %v, want stabsel.ErrMismatch", err)
	}
}
