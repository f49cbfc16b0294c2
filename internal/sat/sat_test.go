package sat

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func lit(v int) Lit  { return MkLit(v, false) }
func nlit(v int) Lit { return MkLit(v, true) }

func TestLitEncoding(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Sign() {
		t.Fatalf("positive literal wrong: %v", l)
	}
	n := l.Neg()
	if n.Var() != 5 || !n.Sign() {
		t.Fatalf("negation wrong: %v", n)
	}
	if n.Neg() != l {
		t.Fatal("double negation is not identity")
	}
	if l.String() != "v5" || n.String() != "~v5" {
		t.Fatalf("strings: %q %q", l, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(lit(a))
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("solve = %v, %v", ok, err)
	}
	if !s.Value(a) {
		t.Fatal("unit clause not satisfied in model")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(lit(a))
	s.AddClause(nlit(a))
	ok, err := s.Solve()
	if err != nil || ok {
		t.Fatalf("expected UNSAT, got %v, %v", ok, err)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	s.AddClause()
	if ok, _ := s.Solve(); ok {
		t.Fatal("empty clause should be UNSAT")
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	s.NewVar()
	if ok, _ := s.Solve(); !ok {
		t.Fatal("formula without clauses must be SAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(lit(a), nlit(a))
	if s.NumClauses() != 0 {
		t.Fatal("tautology should be dropped")
	}
	if ok, _ := s.Solve(); !ok {
		t.Fatal("tautology-only formula must be SAT")
	}
}

func TestImplicationChain(t *testing.T) {
	// x0 and a chain x_i -> x_{i+1}; final ~x_n forces UNSAT.
	const n = 50
	s := NewSolver()
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(lit(vars[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(nlit(vars[i]), lit(vars[i+1]))
	}
	ok, _ := s.Solve()
	if !ok {
		t.Fatal("chain should be SAT")
	}
	for i := range vars {
		if !s.Value(vars[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
	s.AddClause(nlit(vars[n-1]))
	if ok, _ := s.Solve(); ok {
		t.Fatal("chain with negated head should be UNSAT")
	}
}

// pigeonhole encodes PHP(h+1, h): h+1 pigeons in h holes, classic UNSAT.
func pigeonhole(t *testing.T, holes int) {
	t.Helper()
	s := NewSolver()
	pigeons := holes + 1
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = lit(v[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(nlit(v[p1][h]), nlit(v[p2][h]))
			}
		}
	}
	if ok, err := s.Solve(); ok || err != nil {
		t.Fatalf("PHP(%d,%d) must be UNSAT (got %v, %v)", pigeons, holes, ok, err)
	}
}

func TestPigeonhole(t *testing.T) {
	for _, h := range []int{2, 3, 4, 5, 6} {
		pigeonhole(t, h)
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (chromatic number 3): SAT.
	s := NewSolver()
	const n, k = 5, 3
	v := make([][]int, n)
	for i := range v {
		v[i] = make([]int, k)
		for c := range v[i] {
			v[i][c] = s.NewVar()
		}
		cl := make([]Lit, k)
		for c := range cl {
			cl[c] = lit(v[i][c])
		}
		s.AddClause(cl...)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(nlit(v[i][c]), nlit(v[j][c]))
		}
	}
	ok, _ := s.Solve()
	if !ok {
		t.Fatal("5-cycle should be 3-colorable")
	}
	// Check the model is a proper coloring.
	color := make([]int, n)
	for i := range color {
		color[i] = -1
		for c := 0; c < k; c++ {
			if s.Value(v[i][c]) {
				color[i] = c
				break
			}
		}
		if color[i] < 0 {
			t.Fatalf("vertex %d uncolored", i)
		}
	}
	for i := 0; i < n; i++ {
		if color[i] == color[(i+1)%n] {
			t.Fatalf("edge %d-%d monochromatic", i, (i+1)%n)
		}
	}
}

func TestTwoColoringOddCycleUnsat(t *testing.T) {
	s := NewSolver()
	const n = 7 // odd cycle is not 2-colorable
	v := make([]int, n)
	for i := range v {
		v[i] = s.NewVar()
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		// v[i] != v[j]
		s.AddClause(lit(v[i]), lit(v[j]))
		s.AddClause(nlit(v[i]), nlit(v[j]))
	}
	if ok, _ := s.Solve(); ok {
		t.Fatal("odd cycle 2-coloring must be UNSAT")
	}
}

func TestIncrementalBlocking(t *testing.T) {
	// Enumerate all models of a 3-variable formula via blocking clauses.
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(lit(a), lit(b), lit(c)) // at least one true
	count := 0
	for {
		ok, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		if count > 10 {
			t.Fatal("runaway enumeration")
		}
		block := make([]Lit, 0, 3)
		for _, v := range []int{a, b, c} {
			block = append(block, MkLit(v, s.Value(v)))
		}
		s.AddClause(block...)
	}
	if count != 7 {
		t.Fatalf("model count = %d, want 7", count)
	}
}

func TestBudget(t *testing.T) {
	s := NewSolver()
	// A moderately hard UNSAT instance with a tiny budget.
	holes := 7
	pigeons := holes + 1
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
		cl := make([]Lit, holes)
		for h := range cl {
			cl[h] = lit(v[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(nlit(v[p1][h]), nlit(v[p2][h]))
			}
		}
	}
	s.SetBudget(10)
	if _, err := s.Solve(); err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

// bruteForce decides satisfiability of a CNF over n variables by exhaustion.
func bruteForce(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Property: solver agrees with brute force on random small 3-SAT instances,
// and returned models actually satisfy the formula.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)   // 4..10 variables
		m := 2 + rng.Intn(5*n) // up to ~4.3n clauses
		cnf := make([][]Lit, 0, m)
		s := NewSolver()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(rng.Intn(n), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		got, err := s.Solve()
		if err != nil {
			return false
		}
		want := bruteForce(n, cnf)
		if got != want {
			return false
		}
		if got {
			// Verify the model satisfies every clause.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if l.Sign() {
						v = !v
					}
					if v {
						sat = true
						break
					}
				}
				if !sat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPigeonhole6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		holes := 6
		pigeons := holes + 1
		v := make([][]int, pigeons)
		for p := range v {
			v[p] = make([]int, holes)
			for h := range v[p] {
				v[p][h] = s.NewVar()
			}
			cl := make([]Lit, holes)
			for h := range cl {
				cl[h] = lit(v[p][h])
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(nlit(v[p1][h]), nlit(v[p2][h]))
				}
			}
		}
		if ok, _ := s.Solve(); ok {
			b.Fatal("PHP must be UNSAT")
		}
	}
}

// pigeonholeSolver builds PHP(p, h) on s, a fresh or reset solver, without
// solving it: every pigeon sits in some hole, no hole holds two pigeons. Unsatisfiable for p > h and
// exponentially hard for resolution-based solvers — the canonical
// long-running CDCL instance for the cancellation tests.
func pigeonholeSolver(s *Solver, p, h int) *Solver {
	vars := make([][]int, p)
	for i := range vars {
		vars[i] = make([]int, h)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		cl := make([]Lit, h)
		for j := 0; j < h; j++ {
			cl[j] = lit(vars[i][j])
		}
		s.AddClause(cl...)
	}
	for j := 0; j < h; j++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				s.AddClause(nlit(vars[a][j]), nlit(vars[b][j]))
			}
		}
	}
	return s
}

func TestSolveContextDeadline(t *testing.T) {
	s := pigeonholeSolver(NewSolver(), 14, 13) // far beyond any reasonable time budget
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.SolveContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline abort took %v, want well under 1s", elapsed)
	}
}

func TestSolveContextAlreadyCancelled(t *testing.T) {
	s := pigeonholeSolver(NewSolver(), 14, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	// The context path must not change answers on decidable instances.
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a), lit(b))
	s.AddClause(nlit(a))
	ok, err := s.SolveContext(context.Background())
	if err != nil || !ok {
		t.Fatalf("solve = %v, %v", ok, err)
	}
	if !s.Value(b) || s.Value(a) {
		t.Fatal("model wrong under SolveContext")
	}
}
