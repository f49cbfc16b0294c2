// Package cnf provides a convenience layer for building CNF formulas on top
// of the CDCL solver in internal/sat: Tseitin-encoded XOR/AND gates,
// sequential-counter and totalizer cardinality constraints, guarded
// constraints and model blocking. These are the building blocks of the
// synthesis encodings (verification and correction circuit synthesis).
package cnf

import (
	"context"
	"math"

	"repro/internal/sat"
)

// Builder accumulates a CNF formula over a sat.Solver. The zero value is not
// usable; create builders with NewBuilder.
type Builder struct {
	S *sat.Solver

	haveConst  bool
	constTrue  sat.Lit
	constFalse sat.Lit
}

// NewBuilder returns a Builder over a fresh solver.
func NewBuilder() *Builder {
	return &Builder{S: sat.NewSolver()}
}

// Reset returns the builder to the state NewBuilder gives, over its own
// solver reset (sat.Solver.Reset): the solver's storage is kept, and a
// formula built after Reset is solved exactly as on a fresh builder. A
// search that builds one formula per probe reuses one builder throughout.
func (b *Builder) Reset() {
	b.S.Reset()
	*b = Builder{S: b.S}
}

// NewVar introduces a fresh variable and returns its positive literal.
func (b *Builder) NewVar() sat.Lit {
	return sat.MkLit(b.S.NewVar(), false)
}

// NewVars introduces n fresh variables.
func (b *Builder) NewVars(n int) []sat.Lit {
	ls := make([]sat.Lit, n)
	for i := range ls {
		ls[i] = b.NewVar()
	}
	return ls
}

// True returns a literal constrained to be true.
func (b *Builder) True() sat.Lit {
	if !b.haveConst {
		b.constTrue = b.NewVar()
		b.constFalse = b.constTrue.Neg()
		b.S.AddClause(b.constTrue)
		b.haveConst = true
	}
	return b.constTrue
}

// False returns a literal constrained to be false.
func (b *Builder) False() sat.Lit {
	b.True()
	return b.constFalse
}

// AddClause adds a clause.
func (b *Builder) AddClause(lits ...sat.Lit) { b.S.AddClause(lits...) }

// Implies adds g -> (l1 ∨ l2 ∨ ...), i.e. the clause (¬g ∨ l1 ∨ ...).
func (b *Builder) Implies(g sat.Lit, lits ...sat.Lit) {
	cl := make([]sat.Lit, 0, len(lits)+1)
	cl = append(cl, g.Neg())
	cl = append(cl, lits...)
	b.S.AddClause(cl...)
}

// And returns a literal equivalent to the conjunction of lits.
func (b *Builder) And(lits ...sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return b.True()
	case 1:
		return lits[0]
	}
	out := b.NewVar()
	// out -> each lit
	for _, l := range lits {
		b.S.AddClause(out.Neg(), l)
	}
	// all lits -> out
	cl := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		cl = append(cl, l.Neg())
	}
	cl = append(cl, out)
	b.S.AddClause(cl...)
	return out
}

// xorPair returns a literal equivalent to x ⊕ y via four Tseitin clauses.
func (b *Builder) xorPair(x, y sat.Lit) sat.Lit {
	out := b.NewVar()
	b.S.AddClause(out.Neg(), x, y)
	b.S.AddClause(out.Neg(), x.Neg(), y.Neg())
	b.S.AddClause(out, x.Neg(), y)
	b.S.AddClause(out, x, y.Neg())
	return out
}

// Xor returns a literal equivalent to the parity of lits (false for an empty
// list), encoded as a linear Tseitin chain.
func (b *Builder) Xor(lits ...sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return b.False()
	case 1:
		return lits[0]
	}
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = b.xorPair(acc, l)
	}
	return acc
}

// LexLE constrains the equal-length vectors x <= y lexicographically, with
// x[0] and y[0] most significant: wherever the prefixes before position k
// agree, x[k] <= y[k]. The synthesis encodings use it to order selection
// vectors and break the symmetry of interchangeable measurements.
func (b *Builder) LexLE(x, y []sat.Lit) {
	prefixEq := b.True() // the prefixes before position k are equal
	for k := 0; k < len(x); k++ {
		// prefixEq -> (x[k] <= y[k]) i.e. (¬prefixEq ∨ ¬x[k] ∨ y[k])
		b.AddClause(prefixEq.Neg(), x[k].Neg(), y[k])
		if k+1 < len(x) {
			eqk := b.Xor(x[k], y[k]).Neg()
			prefixEq = b.And(prefixEq, eqk)
		}
	}
}

// RREF constrains the equal-length rows to a matrix in reduced row echelon
// form: row i+1's leading one lies strictly right of row i's, and a leading
// one's column is zero in every other row. The caller makes every row
// nonzero; then each len(rows)-dimensional subspace has exactly one model,
// its RREF basis. Where LexLE removes only the row orders of one basis, RREF
// removes every change of basis, so an encoding may use it in place of a
// LexLE chain only when its answer depends on the rows' span alone. Under
// LexLE's order RREF rows are lex-descending, so the two never mix.
func (b *Builder) RREF(rows [][]sat.Lit) {
	// lead[i][j]: row i's leading one is column j. none[i][j]: row i is
	// zero in the columns before j (none[i][0] is true and never built).
	lead := make([][]sat.Lit, len(rows))
	none := make([][]sat.Lit, len(rows))
	for i, row := range rows {
		lead[i] = make([]sat.Lit, len(row))
		none[i] = make([]sat.Lit, len(row)+1)
		for j, x := range row {
			if j == 0 {
				lead[i][0], none[i][1] = x, x.Neg()
				continue
			}
			lead[i][j] = b.And(none[i][j], x)
			none[i][j+1] = b.And(none[i][j], x.Neg())
		}
	}
	for i, row := range rows {
		for j := range row {
			if i+1 < len(rows) {
				b.Implies(lead[i][j], none[i+1][j+1]) // next pivot right of j
			}
			for k := range rows {
				if k != i {
					b.Implies(lead[i][j], rows[k][j].Neg()) // pivot column
				}
			}
		}
	}
}

// AtMostOne adds the constraint that at most one of lits is true, using the
// pairwise encoding (optimal for the small arities used here).
func (b *Builder) AtMostOne(lits ...sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			b.S.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// AtMostK adds the cardinality constraint sum(lits) <= k with the
// sequential-counter encoding (Sinz 2005). k < 0 is rejected by forcing
// unsatisfiability; k >= len(lits) adds nothing.
func (b *Builder) AtMostK(lits []sat.Lit, k int) {
	if k < 0 {
		b.S.AddClause() // empty clause: unsatisfiable
		return
	}
	if k >= len(lits) {
		return
	}
	if k == 0 {
		for _, l := range lits {
			b.S.AddClause(l.Neg())
		}
		return
	}
	n := len(lits)
	// r[i][j] is true if x_0..x_i contains at least j+1 true literals.
	r := make([][]sat.Lit, n)
	for i := range r {
		r[i] = b.NewVars(k)
	}
	for i := 0; i < n; i++ {
		// x_i -> r[i][0]
		b.S.AddClause(lits[i].Neg(), r[i][0])
		if i == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			// carry: r[i-1][j] -> r[i][j]
			b.S.AddClause(r[i-1][j].Neg(), r[i][j])
			if j > 0 {
				// increment: x_i ∧ r[i-1][j-1] -> r[i][j]
				b.S.AddClause(lits[i].Neg(), r[i-1][j-1].Neg(), r[i][j])
			}
		}
		// overflow: x_i ∧ r[i-1][k-1] is forbidden
		b.S.AddClause(lits[i].Neg(), r[i-1][k-1].Neg())
	}
}

// AtMostKTotalizer adds sum(lits) <= k with the totalizer encoding (Bailleux
// & Boufkhad 2003): a balanced tree of unary-sorted counters. Compared to
// the sequential counter it gives stronger propagation at the cost of more
// clauses; the ablation benchmark compares the two.
func (b *Builder) AtMostKTotalizer(lits []sat.Lit, k int) {
	if k < 0 {
		b.S.AddClause()
		return
	}
	if k >= len(lits) {
		return
	}
	if k == 0 {
		for _, l := range lits {
			b.S.AddClause(l.Neg())
		}
		return
	}
	b.S.AddClause(b.Totalizer(lits, k)[k].Neg())
}

// Totalizer returns the outputs of a totalizer over lits (see
// AtMostKTotalizer), truncated to min(len(lits), k+1) counts: out[i] is
// forced true whenever at least i+1 of lits are. It bounds nothing itself;
// the unit ¬out[i] adds sum(lits) <= i, and a caller may add such units one
// after another on the same solver to tighten the bound between solves.
// k must be >= 0 and lits non-empty.
func (b *Builder) Totalizer(lits []sat.Lit, k int) []sat.Lit {
	if len(lits) == 1 {
		return lits
	}
	mid := len(lits) / 2
	left := b.Totalizer(lits[:mid], k)
	right := b.Totalizer(lits[mid:], k)
	n := len(left) + len(right)
	if n > k+1 {
		n = k + 1
	}
	out := b.NewVars(n)
	// Merge: left_i ∧ right_j -> out_{i+j+1}; boundary cases with i or j
	// absent use the pure counts.
	for i := 0; i <= len(left); i++ {
		for j := 0; j <= len(right); j++ {
			sum := i + j
			if sum == 0 || sum > len(out) {
				continue
			}
			cl := make([]sat.Lit, 0, 3)
			if i > 0 {
				cl = append(cl, left[i-1].Neg())
			}
			if j > 0 {
				cl = append(cl, right[j-1].Neg())
			}
			cl = append(cl, out[sum-1])
			b.S.AddClause(cl...)
		}
	}
	// Monotonicity: out_{i+1} -> out_i (helps the solver; not required for
	// soundness of the upper bound).
	for i := 0; i+1 < len(out); i++ {
		b.S.AddClause(out[i+1].Neg(), out[i])
	}
	return out
}

// MinTrue returns the fewest of lits a model of the formula makes true
// (math.MaxInt when it is unsatisfiable) on one solver: after each model
// with w true, the unit ¬out[w−1] of a Totalizer truncated at the first
// model's count forbids w or more, and the solver searches again until
// UNSAT, which proves the last w minimal. Only clauses are added, so learned
// clauses stay valid; the bound stays on the formula.
func (b *Builder) MinTrue(ctx context.Context, lits []sat.Lit) (int, error) {
	least := math.MaxInt
	var out []sat.Lit
	for {
		ok, err := b.SolveContext(ctx)
		if err != nil || !ok {
			return least, err
		}
		least = 0
		for _, l := range lits {
			if b.Val(l) {
				least++
			}
		}
		if least == 0 {
			return 0, nil
		}
		if out == nil {
			out = b.Totalizer(lits, least-1)
		}
		b.AddClause(out[least-1].Neg())
	}
}

// AtLeastK adds sum(lits) >= k by bounding the complement.
func (b *Builder) AtLeastK(lits []sat.Lit, k int) {
	if k <= 0 {
		return
	}
	if k > len(lits) {
		b.S.AddClause()
		return
	}
	if k == 1 {
		b.S.AddClause(lits...)
		return
	}
	neg := make([]sat.Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Neg()
	}
	b.AtMostK(neg, len(lits)-k)
}

// SolveContext decides the accumulated formula under a context: the solver
// aborts promptly with ctx.Err() when ctx is cancelled or times out.
func (b *Builder) SolveContext(ctx context.Context) (bool, error) { return b.S.SolveContext(ctx) }

// Val reads the value of a literal in the last model.
func (b *Builder) Val(l sat.Lit) bool {
	v := b.S.Value(l.Var())
	if l.Sign() {
		return !v
	}
	return v
}

// Block adds a clause excluding the current model restricted to the given
// literals, enabling enumeration of all assignments of those literals.
func (b *Builder) Block(lits []sat.Lit) {
	cl := make([]sat.Lit, 0, len(lits))
	for _, l := range lits {
		if b.Val(l) {
			cl = append(cl, l.Neg())
		} else {
			cl = append(cl, l)
		}
	}
	b.S.AddClause(cl...)
}
