package verify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/prep"
)

func TestDangerousErrorsSteane(t *testing.T) {
	c := code.Steane()
	circ := prep.Heuristic(c)
	ex := DangerousErrors(c, circ, code.ErrX)
	if len(ex) == 0 {
		t.Fatal("Steane prep should have dangerous X errors (it is not FT)")
	}
	for _, e := range ex {
		if w := c.ReducedWeight(code.ErrX, e); w < 2 {
			t.Fatalf("error %v has reduced weight %d < 2", e, w)
		}
	}
}

func TestSynthesizeSteaneVerification(t *testing.T) {
	c := code.Steane()
	circ := prep.Heuristic(c)
	ex := DangerousErrors(c, circ, code.ErrX)
	res, err := Synthesize(context.Background(), c.DetectionGroup(code.ErrX), ex)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I: Steane verification needs 1 ancilla and 3 CNOTs.
	if res.Ancillas() != 1 {
		t.Fatalf("Steane verification uses %d measurements, want 1", res.Ancillas())
	}
	if res.CNOTs() != 3 {
		t.Fatalf("Steane verification uses %d CNOTs, want 3", res.CNOTs())
	}
	// The measurement must be in the detection group span and detect all.
	det := c.DetectionGroup(code.ErrX)
	for _, s := range res.Stabs {
		if !det.InSpan(s) {
			t.Fatalf("measured stabilizer %v outside detection group", s)
		}
	}
	for _, e := range ex {
		detected := false
		for _, s := range res.Stabs {
			if s.Dot(e) == 1 {
				detected = true
				break
			}
		}
		if !detected {
			t.Fatalf("error %v undetected", e)
		}
	}
}

func TestSynthesizeEmptyErrors(t *testing.T) {
	c := code.Steane()
	res, err := Synthesize(context.Background(), c.DetectionGroup(code.ErrX), nil)
	if err != nil || res.Ancillas() != 0 {
		t.Fatalf("empty error set should need no verification, got %v, %v", res, err)
	}
}

func TestSynthesizeDetectsAllCatalog(t *testing.T) {
	for _, c := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.CSS11()} {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			circ := prep.Heuristic(c)
			for _, kind := range []code.ErrType{code.ErrX, code.ErrZ} {
				errs := DangerousErrors(c, circ, kind)
				res, err := Synthesize(context.Background(), c.DetectionGroup(kind), errs)
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				for _, e := range errs {
					ok := false
					for _, s := range res.Stabs {
						if s.Dot(e) == 1 {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("%v error %v undetected", kind, e)
					}
				}
			}
		})
	}
}

func TestSynthesizeMinimality(t *testing.T) {
	// A contrived instance: two errors that a single generator detects.
	det := f2.MustMatFromStrings(
		"1100",
		"0011",
	)
	errs := []f2.Vec{
		f2.MustFromString("1000"),
		f2.MustFromString("0010"),
	}
	res, err := Synthesize(context.Background(), det, errs)
	if err != nil {
		t.Fatal(err)
	}
	// One measurement of 1100+0011=1111 (weight 4) detects both, but two
	// weight-2 measurements cost the same total weight with 2 ancillae;
	// minimal ancilla count 1 must win, then weight 4.
	if res.Ancillas() != 1 {
		t.Fatalf("ancillas = %d, want 1", res.Ancillas())
	}
	if res.CNOTs() != 4 {
		t.Fatalf("weight = %d, want 4", res.CNOTs())
	}
}

func TestSynthesizeWeightOptimality(t *testing.T) {
	// Single error detectable by a weight-2 or weight-4 generator: the
	// weight-2 one must be chosen.
	det := f2.MustMatFromStrings(
		"1111",
		"1100",
	)
	errs := []f2.Vec{f2.MustFromString("1000")}
	res, err := Synthesize(context.Background(), det, errs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ancillas() != 1 || res.CNOTs() != 2 {
		t.Fatalf("got %d meas, %d CNOTs; want 1, 2", res.Ancillas(), res.CNOTs())
	}
}

func TestEnumerateOptimalDistinct(t *testing.T) {
	c := code.Steane()
	circ := prep.Heuristic(c)
	ex := DangerousErrors(c, circ, code.ErrX)
	all, err := EnumerateOptimal(context.Background(), c.DetectionGroup(code.ErrX), ex, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no optimal verifications enumerated")
	}
	opt, _ := Synthesize(context.Background(), c.DetectionGroup(code.ErrX), ex)
	seen := map[string]bool{}
	for _, r := range all {
		if r.Ancillas() != opt.Ancillas() || r.CNOTs() != opt.CNOTs() {
			t.Fatalf("enumerated non-optimal verification: %d meas %d CNOTs", r.Ancillas(), r.CNOTs())
		}
		key := stabsKey(r.Stabs)
		if seen[key] {
			t.Fatal("duplicate verification enumerated")
		}
		seen[key] = true
	}
}

func TestUndetectableErrorFails(t *testing.T) {
	det := f2.MustMatFromStrings("1100")
	errs := []f2.Vec{f2.MustFromString("0011")} // orthogonal to everything
	if _, err := Synthesize(context.Background(), det, errs); err == nil {
		t.Fatal("expected failure for undetectable error")
	}
}

// instance is one verification problem of the differential test.
type instance struct {
	name string
	det  *f2.Mat
	errs []f2.Vec
}

// loadInstances returns every error set of testdata/problems.txt (the
// layer-1 and layer-2 verification problems of the catalog codes), the X
// and Z dangerous sets of every catalog code's heuristic preparation, and
// 200 seeded random problems on small detection groups, every tenth of
// them free to hold an error no measurement detects.
func loadInstances(t *testing.T) []instance {
	t.Helper()
	data, err := os.ReadFile("testdata/problems.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []instance
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || (f[1] != "X" && f[1] != "Z") {
			t.Fatalf("problems.txt:%d: malformed line %q", i+1, line)
		}
		kind := code.ErrX
		if f[1] == "Z" {
			kind = code.ErrZ
		}
		cs, err := code.ByName(f[0])
		if err != nil {
			t.Fatal(err)
		}
		in := instance{name: fmt.Sprintf("%s-%s-line%d", f[0], f[1], i+1), det: cs.DetectionGroup(kind)}
		for _, s := range strings.Split(f[2], ",") {
			in.errs = append(in.errs, f2.MustFromString(s))
		}
		out = append(out, in)
	}
	for _, cs := range code.Catalog() {
		circ := prep.Heuristic(cs)
		for _, kind := range []code.ErrType{code.ErrX, code.ErrZ} {
			if errs := DangerousErrors(cs, circ, kind); len(errs) > 0 {
				out = append(out, instance{name: fmt.Sprintf("%s-%v-prep", cs.Name, kind), det: cs.DetectionGroup(kind), errs: errs})
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n, r := 3+rng.Intn(6), 1+rng.Intn(4)
		det := f2.NewMat(n)
		for j := 0; j < r; j++ {
			row := f2.NewVec(n)
			for row.IsZero() {
				for q := 0; q < n; q++ {
					row.Set(q, rng.Intn(2) == 1)
				}
			}
			det.MustAppendRow(row)
		}
		// Every tenth instance keeps errors that no measurement detects.
		in := instance{name: fmt.Sprintf("random-%d", i), det: det}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			e := f2.NewVec(n)
			for e.IsZero() || (i%10 != 9 && det.MulVec(e).IsZero()) {
				e = f2.NewVec(n)
				for w := 1 + rng.Intn(3); w > 0; w-- {
					e.Flip(rng.Intn(n))
				}
			}
			in.errs = append(in.errs, e)
		}
		out = append(out, in)
	}
	return out
}

// probeSearch is the reference verification search: u upward from 1 to
// maxU, then a binary search on v for the first feasible u, with every
// probe, weighted ones included, answered by probe itself (nil: UNSAT).
// It is the search as it ran before the least weight v* answered weighted
// probes, and Synthesize must end where it does.
func probeSearch(maxU int, probe func(u, v int) (*Result, error)) (*Result, error) {
	for u := 1; u <= maxU; u++ {
		res, err := probe(u, -1)
		if err != nil {
			return nil, err
		}
		if res == nil {
			continue
		}
		best := res
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
	return nil, fmt.Errorf("no verification with up to %d measurements", maxU)
}

// TestLeastWeightMatchesFreshProbes holds the least weight v*, which
// answers Synthesize's weighted probes, to fresh solves of those probes on
// every instance of loadInstances. The reference search solves every probe
// on a reset solver, which searches like a fresh one. At its first feasible u, a fresh solve must be SAT at
// v* and UNSAT at v* − 1, and each of its weighted probes must be SAT
// exactly when v ≥ v*. Synthesize must return the stabilizers the
// reference search ends on, and fail where it fails.
func TestLeastWeightMatchesFreshProbes(t *testing.T) {
	ctx := context.Background()
	instances := loadInstances(t)
	checked := 0
	for _, in := range instances {
		ref := newProblem(in.det, in.errs)
		least := ref.search(ctx).Least
		vstar := map[int]int{}
		got, gotErr := probeSearch(ref.gens.Rows(), func(u, v int) (*Result, error) {
			res, ok, err := ref.solve(ctx, u, v)
			if err != nil {
				return nil, err
			}
			if v < 0 && ok {
				checked++
				if vstar[u], err = least(u); err != nil {
					return nil, err
				}
				for _, w := range []int{vstar[u] - 1, vstar[u]} {
					if _, sat, err := ref.solve(ctx, u, w); err != nil || sat != (w == vstar[u]) {
						t.Errorf("%s u=%d: v*=%d, but a fresh solve at v=%d answers SAT=%v (err %v)", in.name, u, vstar[u], w, sat, err)
					}
				}
			}
			if v >= 0 && ok != (v >= vstar[u]) {
				t.Errorf("%s u=%d v=%d: fresh solve SAT=%v, but v*=%d", in.name, u, v, ok, vstar[u])
			}
			return res, nil
		})
		want, wantErr := Synthesize(ctx, in.det, in.errs)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: probe-by-probe search: %v; Synthesize: %v", in.name, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Synthesize gave %v, the probe-by-probe search %v", in.name, want.Stabs, got.Stabs)
		}
	}
	t.Logf("%d instances, v* checked on %d", len(instances), checked)
}
