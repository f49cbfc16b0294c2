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

	"repro/internal/code"
	"repro/internal/f2"
)

// tableClass is one line of testdata/classes.txt.
type tableClass struct {
	name string
	cs   *code.CSS
	kind code.ErrType
	errs []f2.Vec
}

func loadTableClasses(t *testing.T) []tableClass {
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

// differential runs the optimization over one class with a probe that
// solves every (u, v) with both encodings, and returns the probe count. It
// fails the test when the encodings disagree, when a recovery-encoding model
// does not correct the class, when the pair table disagrees with wt_S, or
// when Synthesize ends elsewhere.
func differential(t *testing.T, cs *code.CSS, kind code.ErrType, errs []f2.Vec, opt Options) int {
	t.Helper()
	ctx := context.Background()
	det, red := cs.DetectionGroup(kind), cs.ReductionGroup(kind)
	c := newClass(det, red, errs, opt)
	for _, p := range c.pairs {
		if want := f2.CosetMinWeight(errs[p.k1].Xor(errs[p.k2]), red) <= 2; p.compatible != want {
			t.Errorf("pair %v, %v: compatible = %v, want %v", errs[p.k1], errs[p.k2], p.compatible, want)
		}
	}
	probes := 0
	got, gotErr := c.search(func(u, v int) (*Block, error) {
		probes++
		ok, err := c.decideCorrection(ctx, u, v)
		if err != nil {
			return nil, err
		}
		blk, err := c.extractCorrection(ctx, u, v)
		if err != nil {
			return nil, err
		}
		if ok != (blk != nil) {
			t.Errorf("u=%d v=%d: residual encoding SAT=%v, recovery encoding SAT=%v", u, v, ok, blk != nil)
		}
		if blk != nil {
			if err := Check(blk, cs, kind, errs); err != nil {
				t.Errorf("u=%d v=%d: %v", u, v, err)
			}
		}
		return blk, nil
	})
	want, wantErr := Synthesize(ctx, det, red, errs, opt)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("probe-by-probe search: %v; Synthesize: %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("Synthesize gave %v, the probe-by-probe search %v", want, got)
	}
	return probes
}

// TestEncodingsAgreeOnTableClasses decides every probe the search makes on
// every class of the Table I option sets with both encodings.
func TestEncodingsAgreeOnTableClasses(t *testing.T) {
	classes := loadTableClasses(t)
	probes := 0
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			probes += differential(t, tc.cs, tc.kind, tc.errs, Options{})
		})
	}
	t.Logf("%d classes, %d probes", len(classes), probes)
}

// TestEncodingsAgreeOnRandomClasses covers seeded random small classes on
// small codes, with and without pair pruning, including classes no
// correction can serve. The code without X stabilizers leaves X errors
// unreduced and lets every Z measurement detect them.
func TestEncodingsAgreeOnRandomClasses(t *testing.T) {
	bare := code.MustNew("bare6", f2.NewMat(6), f2.MustMatFromStrings("110000"))
	// Pairwise compatible, yet no recovery serves all four: only the
	// residual constraints, not the pair compatibility, rule out u = 0.
	differential(t, bare, code.ErrX, []f2.Vec{vec("000000"), vec("110000"), vec("101000"), vec("011000")}, Options{})

	rng := rand.New(rand.NewSource(7))
	codes := []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.C4(), code.C6(), bare}
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
		opt := Options{NoPairPruning: i%2 == 1}
		t.Run(fmt.Sprintf("%d-%s-%v", i, cs.Name, kind), func(t *testing.T) {
			differential(t, cs, kind, errs, opt)
		})
	}
}

// TestEncodingMismatchIsAnError makes the residual encoding permit every
// pair of residuals, so it answers SAT where the recovery encoding answers
// UNSAT. The search must stop with an error, not read the probe as UNSAT
// and move on to a larger u.
func TestEncodingMismatchIsAnError(t *testing.T) {
	det := f2.MustMatFromStrings("100000", "001000")
	errs := []f2.Vec{vec("110000"), vec("001100")}
	c := newClass(det, f2.NewMat(6), errs, Options{NoPairPruning: true})
	all := make([][]int, 7)
	for a := range all {
		for b := 0; b < 7; b++ {
			all[a] = append(all[a], b)
		}
	}
	for i := range c.pairs {
		c.pairs[i].next = all
	}
	_, err := c.search(func(u, v int) (*Block, error) { return c.solveCorrection(context.Background(), u, v) })
	if !errors.Is(err, errEncodingMismatch) {
		t.Fatalf("err = %v, want errEncodingMismatch", err)
	}
}
