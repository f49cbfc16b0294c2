package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func TestConstants(t *testing.T) {
	b := NewBuilder()
	tr, fa := b.True(), b.False()
	ok, _ := b.S.Solve()
	if !ok {
		t.Fatal("constants alone must be SAT")
	}
	if !b.Val(tr) || b.Val(fa) {
		t.Fatal("constant values wrong")
	}
}

// TestResetForgetsConstants builds on a reset builder: its constants must
// be new variables of the new formula, as on a fresh builder.
func TestResetForgetsConstants(t *testing.T) {
	b := NewBuilder()
	b.NewVars(3)
	b.AddClause(b.False())
	b.Reset()
	tr := b.True()
	if tr.Var() != 0 || b.S.NumVars() != 1 {
		t.Fatalf("after Reset: True() = %v over %d variables, want v0 over 1", tr, b.S.NumVars())
	}
	if ok, _ := b.S.Solve(); !ok || !b.Val(tr) || b.Val(b.False()) {
		t.Fatal("after Reset: the constants alone must be SAT with their values")
	}
}

func TestXorTruthTable(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		b := NewBuilder()
		xs := b.NewVars(3)
		for i, x := range xs {
			if mask>>i&1 == 1 {
				b.AddClause(x)
			} else {
				b.AddClause(x.Neg())
			}
		}
		p := b.Xor(xs...)
		ok, _ := b.S.Solve()
		if !ok {
			t.Fatalf("mask %d: unsat", mask)
		}
		wantParity := (mask&1 ^ mask>>1&1 ^ mask>>2&1) == 1
		if b.Val(p) != wantParity {
			t.Fatalf("mask %d: parity = %v, want %v", mask, b.Val(p), wantParity)
		}
	}
}

func TestXorEmptyAndSingle(t *testing.T) {
	b := NewBuilder()
	if p := b.Xor(); p != b.False() {
		// Force evaluation through solving.
		b.AddClause(p)
		if ok, _ := b.S.Solve(); ok {
			t.Fatal("empty xor should be the false literal")
		}
	}
	b2 := NewBuilder()
	x := b2.NewVar()
	if b2.Xor(x) != x {
		t.Fatal("single xor should be identity")
	}
}

func TestAndOr(t *testing.T) {
	b := NewBuilder()
	x, y := b.NewVar(), b.NewVar()
	a := b.And(x, y)
	b.AddClause(x)
	b.AddClause(y.Neg())
	ok, _ := b.S.Solve()
	if !ok {
		t.Fatal("unsat")
	}
	if b.Val(a) {
		t.Fatal("and = true, want false")
	}
}

func countModels(t *testing.T, build func(b *Builder) []sat.Lit) int {
	t.Helper()
	b := NewBuilder()
	lits := build(b)
	n, err := b.EnumerateModels(lits, 0, func([]bool) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// EnumerateModels repeatedly solves and blocks the projection onto lits,
// invoking fn with the projected assignment until the formula is exhausted,
// fn returns false, or limit models were produced (limit <= 0 means no
// limit). It returns the number of models enumerated. It is the model-count
// oracle of this package's tests.
func (b *Builder) EnumerateModels(lits []sat.Lit, limit int, fn func(vals []bool) bool) (int, error) {
	count := 0
	for limit <= 0 || count < limit {
		ok, err := b.S.Solve()
		if err != nil {
			return count, err
		}
		if !ok {
			return count, nil
		}
		vals := make([]bool, len(lits))
		for i, l := range lits {
			vals[i] = b.Val(l)
		}
		count++
		cont := fn(vals)
		b.Block(lits)
		if !cont {
			return count, nil
		}
	}
	return count, nil
}

func TestAtMostKModelCounts(t *testing.T) {
	// Number of assignments of n variables with at most k ones: sum of
	// binomials.
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
	for _, tc := range []struct{ n, k int }{{4, 1}, {4, 2}, {5, 3}, {6, 2}, {5, 0}} {
		want := 0
		for j := 0; j <= tc.k; j++ {
			want += binom(tc.n, j)
		}
		got := countModels(t, func(b *Builder) []sat.Lit {
			xs := b.NewVars(tc.n)
			b.AtMostK(xs, tc.k)
			return xs
		})
		if got != want {
			t.Fatalf("AtMost%d over %d vars: %d models, want %d", tc.k, tc.n, got, want)
		}
	}
}

func TestAtLeastKExactlyK(t *testing.T) {
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
	got := countModels(t, func(b *Builder) []sat.Lit {
		xs := b.NewVars(5)
		b.AtLeastK(xs, 4)
		return xs
	})
	if want := binom(5, 4) + binom(5, 5); got != want {
		t.Fatalf("AtLeast4/5: %d models, want %d", got, want)
	}
}

func TestAtMostOne(t *testing.T) {
	got := countModels(t, func(b *Builder) []sat.Lit {
		xs := b.NewVars(5)
		b.AtMostOne(xs...)
		return xs
	})
	if got != 6 {
		t.Fatalf("AtMostOne over 5 vars: %d models, want 6", got)
	}
}

func TestImpliesEquiv(t *testing.T) {
	b := NewBuilder()
	g, x := b.NewVar(), b.NewVar()
	b.Implies(g, x)
	b.AddClause(g)
	b.AddClause(x.Neg())
	if ok, _ := b.S.Solve(); ok {
		t.Fatal("implication violated")
	}
}

// Property: for random n, k and random forced assignments, AtMostK is
// satisfiable exactly when the number of forced-true literals is <= k.
func TestAtMostKForcedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		k := rng.Intn(n + 1)
		b := NewBuilder()
		xs := b.NewVars(n)
		ones := 0
		for _, x := range xs {
			if rng.Intn(2) == 1 {
				b.AddClause(x)
				ones++
			} else {
				b.AddClause(x.Neg())
			}
		}
		b.AtMostK(xs, k)
		ok, err := b.S.Solve()
		if err != nil {
			return false
		}
		return ok == (ones <= k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Xor literal equals parity of random forced assignment.
func TestXorForcedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := NewBuilder()
		xs := b.NewVars(n)
		parity := false
		for _, x := range xs {
			if rng.Intn(2) == 1 {
				b.AddClause(x)
				parity = !parity
			} else {
				b.AddClause(x.Neg())
			}
		}
		p := b.Xor(xs...)
		ok, err := b.S.Solve()
		if err != nil || !ok {
			return false
		}
		return b.Val(p) == parity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateModelsLimit(t *testing.T) {
	b := NewBuilder()
	xs := b.NewVars(4) // 16 models
	n, err := b.EnumerateModels(xs, 5, func([]bool) bool { return true })
	if err != nil || n != 5 {
		t.Fatalf("limit ignored: n=%d err=%v", n, err)
	}
}

func TestEnumerateModelsDistinct(t *testing.T) {
	b := NewBuilder()
	xs := b.NewVars(3)
	seen := map[[3]bool]bool{}
	_, err := b.EnumerateModels(xs, 0, func(vals []bool) bool {
		key := [3]bool{vals[0], vals[1], vals[2]}
		if seen[key] {
			t.Fatal("duplicate model enumerated")
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("enumerated %d models, want 8", len(seen))
	}
}

// TestLexLEModelCounts counts the models of an n-bit x <= y: every pair
// with x <= y as integers (MSB first), 2^n(2^n+1)/2 of them, and each
// enumerated model must be such a pair.
func TestLexLEModelCounts(t *testing.T) {
	for n := 1; n <= 4; n++ {
		b := NewBuilder()
		x, y := b.NewVars(n), b.NewVars(n)
		b.LexLE(x, y)
		got, err := b.EnumerateModels(append(x[:n:n], y...), 0, func(vals []bool) bool {
			var xv, yv int
			for k := 0; k < n; k++ {
				xv, yv = xv<<1, yv<<1
				if vals[k] {
					xv |= 1
				}
				if vals[n+k] {
					yv |= 1
				}
			}
			if xv > yv {
				t.Errorf("n=%d: model x=%d > y=%d", n, xv, yv)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (1 << n) * (1<<n + 1) / 2; got != want {
			t.Errorf("n=%d: %d models, want %d", n, got, want)
		}
	}
}

// TestRREFModelCounts counts the models of RREF over u nonzero rows of r
// bits: one per u-dimensional subspace of F_2^r, the Gaussian binomial
// [r choose u]_2 of them, and each enumerated model must be a matrix in
// reduced row echelon form.
func TestRREFModelCounts(t *testing.T) {
	for r := 1; r <= 5; r++ {
		for u := 1; u <= r; u++ {
			b := NewBuilder()
			rows := make([][]sat.Lit, u)
			var all []sat.Lit
			for i := range rows {
				rows[i] = b.NewVars(r)
				b.AddClause(rows[i]...)
				all = append(all, rows[i]...)
			}
			b.RREF(rows)
			got, err := b.EnumerateModels(all, 0, func(vals []bool) bool {
				if !isRREF(vals, u, r) {
					t.Errorf("r=%d u=%d: model %v is not in RREF", r, u, vals)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			// [r choose u]_2 = Π_{i<u} (2^(r-i) - 1) / (2^(i+1) - 1).
			num, den := 1, 1
			for i := 0; i < u; i++ {
				num *= 1<<(r-i) - 1
				den *= 1<<(i+1) - 1
			}
			if want := num / den; got != want {
				t.Errorf("r=%d u=%d: %d models, want %d", r, u, got, want)
			}
		}
	}
}

// isRREF reports whether the row-major u×r bit matrix m has nonzero rows,
// strictly increasing leading ones and pivot columns zero outside their row.
func isRREF(m []bool, u, r int) bool {
	prev := -1
	for i := 0; i < u; i++ {
		lead := -1
		for j := 0; j < r && lead < 0; j++ {
			if m[i*r+j] {
				lead = j
			}
		}
		if lead <= prev {
			return false
		}
		for k := 0; k < u; k++ {
			if k != i && m[k*r+lead] {
				return false
			}
		}
		prev = lead
	}
	return true
}
