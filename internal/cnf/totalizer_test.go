package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func TestTotalizerModelCounts(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for _, tc := range []struct{ n, k int }{{4, 1}, {5, 2}, {6, 3}, {5, 0}, {7, 1}} {
		want := 0
		for j := 0; j <= tc.k; j++ {
			want += binom(tc.n, j)
		}
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

var _ = sat.Lit(0) // keep the import for documentation examples
