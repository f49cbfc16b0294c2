package stabsel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/f2"
	"repro/internal/sat"
)

// weight is a fake search result: a model of that total weight.
type weight int

func (w weight) CNOTs() int { return int(w) }

// fake is a monotone problem for Search: u measurements exist from feasU
// on, an unbounded model has weight first, and the least weight is vstar.
// A weighted probe at v ≥ vstar returns a model of weight v, the heaviest
// the bound allows. It records every call the search makes.
type fake struct {
	feasU, first, vstar int
	solves              []int // v of each Solve call
	leasts              int
}

func (f *fake) search() Search[weight] {
	return Search[weight]{
		MaxU: 4,
		Solve: func(u, v int) (weight, bool, error) {
			f.solves = append(f.solves, v)
			switch {
			case u < f.feasU:
				return 0, false, nil
			case v < 0:
				return weight(f.first), true, nil
			case v < f.vstar:
				return 0, false, nil
			}
			return weight(v), true, nil
		},
		Least: func(u int) (int, error) {
			f.leasts++
			if u < f.feasU {
				return math.MaxInt, nil
			}
			return f.vstar, nil
		},
	}
}

// TestSearchSolvesOnlyAtOrAboveLeast checks the search's probe sequence on
// fake problems: it ends on the least weight at the first feasible u, asks
// Least once and only when a weighted probe is left, solves every u up to
// the first feasible one unbounded, and solves no weighted probe below v*.
func TestSearchSolvesOnlyAtOrAboveLeast(t *testing.T) {
	for _, tc := range []struct{ feasU, first, vstar, leasts int }{
		{1, 9, 3, 1}, {2, 9, 9, 1}, {3, 3, 3, 0}, {2, 20, 2, 1}, {1, 12, 7, 1},
	} {
		f := &fake{feasU: tc.feasU, first: tc.first, vstar: tc.vstar}
		best, ok, err := f.search().Run()
		if err != nil || !ok || int(best) != tc.vstar {
			t.Fatalf("%+v: best %d, ok %v, err %v; want %d", tc, best, ok, err, tc.vstar)
		}
		if f.leasts != tc.leasts {
			t.Errorf("%+v: Least called %d times, want %d", tc, f.leasts, tc.leasts)
		}
		unbounded := 0
		for _, v := range f.solves {
			if v < 0 {
				unbounded++
			} else if v < tc.vstar {
				t.Errorf("%+v: solved the weighted probe v=%d below v*=%d", tc, v, tc.vstar)
			}
		}
		if unbounded != tc.feasU {
			t.Errorf("%+v: %d unbounded solves, want %d", tc, unbounded, tc.feasU)
		}
	}
}

// TestSearchFindsNothing checks that a problem no u up to MaxU admits ends
// with ok false and no error, and never asks for a least weight.
func TestSearchFindsNothing(t *testing.T) {
	f := &fake{feasU: 5, first: 9, vstar: 3}
	if _, ok, err := f.search().Run(); ok || err != nil {
		t.Fatalf("ok %v, err %v; want nothing found", ok, err)
	}
	if f.leasts != 0 || len(f.solves) != 4 {
		t.Fatalf("%d leasts and %d solves, want 0 and 4 (u = 1..4)", f.leasts, len(f.solves))
	}
}

// TestSearchMismatchIsAnError gives the search answers that contradict
// each other: a weighted probe at v* UNSAT, and a least weight above the
// unbounded model's. Each must end the search with ErrMismatch rather than
// a larger u or a result.
func TestSearchMismatchIsAnError(t *testing.T) {
	f := &fake{feasU: 2, first: 9, vstar: 4}
	s := f.search()
	s.Least = func(int) (int, error) { return f.vstar - 1, nil }
	if _, _, err := s.Run(); !errors.Is(err, ErrMismatch) {
		t.Errorf("weighted probe at v* UNSAT: err %v, want ErrMismatch", err)
	}

	s = f.search()
	s.Least = func(int) (int, error) { return f.first + 1, nil }
	if _, _, err := s.Run(); !errors.Is(err, ErrMismatch) {
		t.Errorf("least weight above a model: err %v, want ErrMismatch", err)
	}
}

// TestSearchReturnsCallbackErrors checks that an error of Solve or Least
// ends the search with that error.
func TestSearchReturnsCallbackErrors(t *testing.T) {
	boom := errors.New("boom")
	for name, spoil := range map[string]func(*Search[weight]){
		"solve": func(s *Search[weight]) { s.Solve = func(int, int) (weight, bool, error) { return 0, false, boom } },
		"least": func(s *Search[weight]) { s.Least = func(int) (int, error) { return 0, boom } },
	} {
		s := (&fake{feasU: 1, first: 9, vstar: 3}).search()
		spoil(&s)
		if _, ok, err := s.Run(); !errors.Is(err, boom) || ok {
			t.Errorf("%s: ok %v, err %v; want boom", name, ok, err)
		}
	}
}

// TestSelEncodesWhatItReadsBack enumerates every model of a Sel with its
// lex chain, weight bits and syndrome bits over a small basis and checks
// each against the stabilizers Stabs reads back: every row non-trivial,
// the rows lex-ordered, the weight bits summing to the total weight (at
// most v when bounded), and each syndrome bit the stabilizer's overlap
// parity with its error. The model count must be the number of lex-ordered
// tuples of non-zero selections within the bound.
func TestSelEncodesWhatItReadsBack(t *testing.T) {
	gens := f2.MustMatFromStrings("110100", "011010", "001011")
	errs := []f2.Vec{f2.MustFromString("100000"), f2.MustFromString("000111"), f2.MustFromString("000000")}
	r := gens.Rows()
	for u := 0; u <= 2; u++ {
		for _, v := range []int{Unbounded, Least, 3, 6} {
			b := cnf.NewBuilder()
			sel := New(b, gens, u)
			sel.Lex()
			weight := sel.Weight(v)
			if (v == Unbounded) != (weight == nil) && u > 0 {
				t.Fatalf("u=%d v=%d: %d weight bits", u, v, len(weight))
			}
			syn := make([][]sat.Lit, len(errs))
			for k, e := range errs {
				syn[k] = sel.Syndrome(e)
			}
			var all []sat.Lit
			for _, row := range sel.Rows {
				all = append(all, row...)
			}
			models := 0
			for {
				ok, err := b.S.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				models++
				stabs := sel.Stabs()
				if len(stabs) != u {
					t.Fatalf("u=%d: %d stabilizers read back", u, len(stabs))
				}
				total := 0
				for i, s := range stabs {
					if s.IsZero() {
						t.Fatalf("u=%d v=%d: trivial measurement %d", u, v, i)
					}
					if i > 0 && selKey(b, sel.Rows[i-1]) > selKey(b, sel.Rows[i]) {
						t.Fatalf("u=%d v=%d: rows %d and %d out of lex order", u, v, i-1, i)
					}
					total += s.Weight()
					for k, e := range errs {
						if b.Val(syn[k][i]) != (s.Dot(e) == 1) {
							t.Fatalf("u=%d v=%d: syndrome bit of error %v under %v wrong", u, v, e, s)
						}
					}
				}
				if weight != nil {
					set := 0
					for _, l := range weight {
						if b.Val(l) {
							set++
						}
					}
					if set != total {
						t.Fatalf("u=%d v=%d: weight bits sum to %d, stabilizers weigh %d", u, v, set, total)
					}
				}
				if v >= 0 && total > v {
					t.Fatalf("u=%d v=%d: model of weight %d", u, v, total)
				}
				b.Block(all)
			}
			if want := lexTuples(gens, r, u, v); models != want {
				t.Errorf("u=%d v=%d: %d models, want %d", u, v, models, want)
			}
		}
	}
}

// selKey is a selection row's value in the last model, first bit most
// significant, as cnf.Builder.LexLE orders it.
func selKey(b *cnf.Builder, row []sat.Lit) int {
	k := 0
	for _, x := range row {
		k <<= 1
		if b.Val(x) {
			k |= 1
		}
	}
	return k
}

// lexTuples counts the non-decreasing u-tuples of non-zero r-bit
// selections over gens whose stabilizers weigh at most v in total (no
// bound for v < 0).
func lexTuples(gens *f2.Mat, r, u, v int) int {
	wt := make([]int, 1<<r)
	for m := 1; m < 1<<r; m++ {
		s := f2.NewVec(gens.Cols())
		for j := 0; j < r; j++ {
			if m>>(r-1-j)&1 == 1 { // bit j of the row is the most significant first
				s.XorInPlace(gens.Row(j))
			}
		}
		wt[m] = s.Weight()
	}
	var count func(u, lo, left int) int
	count = func(u, lo, left int) int {
		if u == 0 {
			return 1
		}
		n := 0
		for m := lo; m < 1<<r; m++ {
			if v < 0 || wt[m] <= left {
				n += count(u-1, m, left-wt[m])
			}
		}
		return n
	}
	return count(u, 1, v)
}
