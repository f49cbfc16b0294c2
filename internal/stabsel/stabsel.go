// Package stabsel is the optimal-measurement encoding that verification
// (internal/verify) and correction (internal/correct) share: choose u
// stabilizers from the span of a detection basis, the fewest and then the
// lightest, by SAT probes (u, v). Sel is the part of a probe's formula both
// have in common; each caller adds its parts in its own order, because that
// order steers the solver, and the solver's models are the protocols.
// Search is verification's (u, v) loop; correction has its own.
package stabsel

import (
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/f2"
	"repro/internal/sat"
)

// The bounds Sel.Weight takes besides v ≥ 0: Unbounded builds no weight
// bits, and Least builds them without bounding their sum, for the
// least-weight solve.
const (
	Unbounded = -1
	Least     = -2
)

// Sel is u selection rows over a span basis: Rows[i][j] selects basis
// row j for measurement i, which measures the sum of its selected rows.
type Sel struct {
	b    *cnf.Builder
	gens *f2.Mat
	Rows [][]sat.Lit
}

// New adds u selection rows over the independent basis gens to b, each row's
// variables followed by the clause that makes its measurement non-trivial.
func New(b *cnf.Builder, gens *f2.Mat, u int) *Sel {
	s := &Sel{b: b, gens: gens, Rows: make([][]sat.Lit, u)}
	for i := range s.Rows {
		s.Rows[i] = b.NewVars(gens.Rows())
		b.AddClause(s.Rows[i]...)
	}
	return s
}

// Lex orders the rows lexicographically (cnf.Builder.LexLE).
func (s *Sel) Lex() {
	for i := 0; i+1 < len(s.Rows); i++ {
		s.b.LexLE(s.Rows[i], s.Rows[i+1])
	}
}

// Weight builds and returns the weight bits, one per measurement and qubit
// some basis row touches, whose sum is the total CNOT weight, and bounds
// that sum by v ≥ 0 (cnf.Builder.AtMostK).
func (s *Sel) Weight(v int) []sat.Lit {
	if v < 0 && v != Least {
		return nil
	}
	var weight []sat.Lit
	for _, row := range s.Rows {
		for q := 0; q < s.gens.Cols(); q++ {
			var lits []sat.Lit
			for j, x := range row {
				if s.gens.Row(j).Get(q) {
					lits = append(lits, x)
				}
			}
			if len(lits) > 0 {
				weight = append(weight, s.b.Xor(lits...))
			}
		}
	}
	if v >= 0 {
		s.b.AtMostK(weight, v)
	}
	return weight
}

// Syndrome returns the bits s_i·e of error e, one per measurement.
func (s *Sel) Syndrome(e f2.Vec) []sat.Lit {
	syn := make([]sat.Lit, len(s.Rows))
	for i, row := range s.Rows {
		var lits []sat.Lit
		for j, x := range row {
			if s.gens.Row(j).Dot(e) == 1 {
				lits = append(lits, x)
			}
		}
		syn[i] = s.b.Xor(lits...)
	}
	return syn
}

// Stabs reads the measured stabilizers from the builder's last model, nil
// for u = 0.
func (s *Sel) Stabs() []f2.Vec {
	var out []f2.Vec
	for _, row := range s.Rows {
		st := f2.NewVec(s.gens.Cols())
		for j, x := range row {
			if s.b.Val(x) {
				st.XorInPlace(s.gens.Row(j))
			}
		}
		out = append(out, st)
	}
	return out
}

// ErrMismatch reports answers that contradict each other: a probe known
// satisfiable (v ≥ v*) that solves unsatisfiable, or a v* above or off a
// model's weight. It is a bug, never a reason to try a larger u.
var ErrMismatch = errors.New("stabsel: a probe known satisfiable was solved unsatisfiable")

// Search is verification's (u, v) loop over probes, v < 0 meaning no
// weight bound; R's CNOTs is a result's total weight. u runs from 1 to
// MaxU, at most the detection rank. Solve returns a probe's result, ok
// false when UNSAT. Least returns v*(u), the least total weight of u
// measurements: a weighted probe is SAT exactly when v ≥ v*.
type Search[R interface{ CNOTs() int }] struct {
	MaxU  int
	Solve func(u, v int) (r R, ok bool, err error)
	Least func(u int) (int, error)
}

// Run returns the lightest result of the fewest measurements, ok false when
// no u up to MaxU admits one. For the first feasible u it binary-searches
// v below the unbounded model's weight, asks Least once, lazily, answers a
// probe with v < v* as UNSAT without solving it, and solves the others,
// each of whose models is a candidate result.
func (s Search[R]) Run() (best R, ok bool, err error) {
	for u := 1; u <= s.MaxU; u++ {
		if best, ok, err = s.Solve(u, Unbounded); err != nil {
			return best, false, err
		}
		if !ok {
			continue
		}
		vstar := -1 // not yet asked for
		lo, hi := u, best.CNOTs()-1
		for lo <= hi {
			if vstar < 0 {
				if vstar, err = s.Least(u); err != nil {
					return best, false, err
				}
				if vstar > best.CNOTs() {
					return best, false, fmt.Errorf("u=%d: least weight %d above a model of weight %d: %w", u, vstar, best.CNOTs(), ErrMismatch)
				}
			}
			mid := (lo + hi) / 2
			if mid < vstar {
				lo = mid + 1
				continue
			}
			if best, ok, err = s.Solve(u, mid); err != nil {
				return best, false, err
			}
			if !ok {
				return best, false, fmt.Errorf("u=%d v=%d: %w", u, mid, ErrMismatch)
			}
			hi = best.CNOTs() - 1
		}
		return best, true, nil
	}
	return best, false, nil
}
