package cnf

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// atMostCount returns Σ_{j≤k} C(n, j), the number of assignments of n
// variables with at most k true.
func atMostCount(n, k int) int {
	want := 0
	for j := 0; j <= k && j <= n; j++ {
		r := 1
		for i := 0; i < j; i++ {
			r = r * (n - i) / (i + 1)
		}
		want += r
	}
	return want
}

func TestTotalizerModelCounts(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 1}, {5, 2}, {6, 3}, {5, 0}, {7, 1}} {
		want := atMostCount(tc.n, tc.k)
		b := NewBuilder()
		xs := b.NewVars(tc.n)
		b.AtMostKTotalizer(xs, tc.k)
		got, err := b.EnumerateModels(xs, 0, func([]bool) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("totalizer AtMost%d over %d vars: %d models, want %d", tc.k, tc.n, got, want)
		}
	}
}

// TestTotalizerTightensOnOneSolver tightens the bound of one Totalizer the
// way a minimum-weight search does: the units ¬out[n−1], ¬out[n−2], ...,
// ¬out[k] are added one at a time to the same solver, each followed by a
// solve whose model must respect every bound added so far. Then the models
// over the inputs are counted against Σ_{j≤k} C(n, j). Counting blocks each
// model for good, so every k gets its own solver, tightened from n−1.
func TestTotalizerTightensOnOneSolver(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for k := n - 1; k >= 0; k-- {
			b := NewBuilder()
			xs := b.NewVars(n)
			out := b.Totalizer(xs, n-1)
			if len(out) != n {
				t.Fatalf("n=%d: %d outputs, want %d", n, len(out), n)
			}
			for j := n - 1; j >= k; j-- {
				b.AddClause(out[j].Neg())
				ok, err := b.S.Solve()
				if err != nil || !ok {
					t.Fatalf("n=%d: at most %d true: SAT=%v, err %v", n, j, ok, err)
				}
				w := 0
				for _, x := range xs {
					if b.Val(x) {
						w++
					}
				}
				if w > j {
					t.Fatalf("n=%d: model of weight %d under the bound %d", n, w, j)
				}
			}
			got, err := b.EnumerateModels(xs, 0, func([]bool) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if want := atMostCount(n, k); got != want {
				t.Fatalf("n=%d tightened to %d: %d models, want %d", n, k, got, want)
			}
		}
	}
}

// TestTotalizerFindsMinimumWeight runs MinTrue, the minimum-weight loop on
// one solver and one tightened totalizer, on random formulas. Its answer
// must be the least weight of a model, found by trying every assignment
// (math.MaxInt for an unsatisfiable formula), and the formula it leaves
// must admit no model of that weight minus one.
func TestTotalizerFindsMinimumWeight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		b := NewBuilder()
		xs := b.NewVars(n)
		var clauses [][]sat.Lit
		for i := rng.Intn(2 * n); i > 0; i-- {
			cl := make([]sat.Lit, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = sat.MkLit(rng.Intn(n), rng.Intn(3) == 0)
			}
			clauses = append(clauses, cl)
			b.AddClause(cl...)
		}
		want := math.MaxInt
		for a := 0; a < 1<<n; a++ {
			sats := true
			for _, cl := range clauses {
				hit := false
				for _, l := range cl {
					hit = hit || (a>>l.Var()&1 == 1) != l.Sign()
				}
				sats = sats && hit
			}
			if w := bits.OnesCount(uint(a)); sats && w < want {
				want = w
			}
		}
		got, err := b.MinTrue(context.Background(), xs)
		if err != nil || got != want {
			return false
		}
		if got == 0 || got == math.MaxInt {
			return true
		}
		ok, err := b.S.Solve()
		return err == nil && !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMinTrueCancelled checks that MinTrue returns a done context's error.
func TestMinTrueCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBuilder()
	xs := b.NewVars(3)
	b.AddClause(xs...)
	if _, err := b.MinTrue(ctx, xs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Property: the totalizer and sequential-counter encodings agree on random
// forced assignments.
func TestTotalizerAgreesWithSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		k := rng.Intn(n + 1)
		force := make([]bool, n)
		ones := 0
		for i := range force {
			force[i] = rng.Intn(2) == 1
			if force[i] {
				ones++
			}
		}
		solve := func(tot bool) bool {
			b := NewBuilder()
			xs := b.NewVars(n)
			for i, x := range xs {
				if force[i] {
					b.AddClause(x)
				} else {
					b.AddClause(x.Neg())
				}
			}
			if tot {
				b.AtMostKTotalizer(xs, k)
			} else {
				b.AtMostK(xs, k)
			}
			ok, err := b.S.Solve()
			return err == nil && ok
		}
		want := ones <= k
		return solve(true) == want && solve(false) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalizerEdgeCases(t *testing.T) {
	// k >= n is vacuous.
	b := NewBuilder()
	xs := b.NewVars(3)
	b.AtMostKTotalizer(xs, 3)
	for _, x := range xs {
		b.AddClause(x)
	}
	if ok, _ := b.S.Solve(); !ok {
		t.Fatal("k=n should allow all-true")
	}
	// k < 0 is unsatisfiable.
	b2 := NewBuilder()
	b2.NewVars(2)
	b2.AtMostKTotalizer(b2.NewVars(2), -1)
	if ok, _ := b2.S.Solve(); ok {
		t.Fatal("negative k must be UNSAT")
	}
	// k = 0 forces all-false.
	b3 := NewBuilder()
	ys := b3.NewVars(4)
	b3.AtMostKTotalizer(ys, 0)
	ok, _ := b3.S.Solve()
	if !ok {
		t.Fatal("k=0 should be satisfiable")
	}
	for _, y := range ys {
		if b3.Val(y) {
			t.Fatal("k=0 left a variable true")
		}
	}
}
