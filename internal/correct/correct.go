// Package correct implements the paper's central contribution: SAT-based
// synthesis of optimal correction circuits (CORRECTION CIRCUIT SYNTHESIS).
//
// Given the set E of errors that share one verification signature (one
// branch of the deterministic protocol), the synthesizer finds u stabilizers
// s_1..s_u from the detection-group span with minimal u and minimal total
// weight v = Σ wt(s_i), such that all errors with the same extended syndrome
// b ∈ {0,1}^u are reduced to a correctable error (stabilizer-reduced weight
// ≤ 1) by one shared Pauli recovery c_b. The decision problem for fixed
// (u, v) is encoded as CNF and decided by the CDCL solver; optimality
// follows by iterating u upward and v downward exactly as in the paper.
//
// Each (u, v) probe is decided with two encodings. The residual encoding
// decides it: every error picks which weight-≤1 residual w its recovery
// leaves, and errors with equal syndromes must pick residuals that make
// their recoveries congruent modulo the stabilizers, a syndrome-table
// lookup. It has no free recovery or stabilizer bits, so the solver never
// refutes equivalent recoveries one by one, and the UNSAT probes at the
// optimality boundary (most of the search time) get much cheaper. Only a
// satisfiable probe is then solved again with the recovery encoding, which
// spells out each recovery bit by bit, and its model becomes the block.
// The residual encoding's own models would do as well, but they pick other
// measurements and recoveries among the optimal ones, and those protocols
// are worse in simulation: the Surface code's stratified logical error rate
// at p = 1e-2 rises from 2.05e-3 to 2.65e-3 (+30%), Carbon's by about 3%.
// So the recovery encoding stays the extractor, and every synthesized block
// is the one it alone would give.
package correct

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/sat"
)

// Block is a synthesized correction: the additional stabilizer measurements
// and the recovery operator to apply for each observed syndrome.
type Block struct {
	Stabs    []f2.Vec          // measured stabilizers, elements of the detection span
	Recovery map[string]f2.Vec // syndrome bits ("01...") → recovery support
}

// Ancillas returns the number of additional measurements.
func (b *Block) Ancillas() int { return len(b.Stabs) }

// CNOTs returns the total CNOT count of the additional measurements.
func (b *Block) CNOTs() int {
	w := 0
	for _, s := range b.Stabs {
		w += s.Weight()
	}
	return w
}

// SyndromeOf returns the syndrome key of error e under the block's
// measurements.
func (b *Block) SyndromeOf(e f2.Vec) string {
	key := make([]byte, len(b.Stabs))
	for i, s := range b.Stabs {
		if s.Dot(e) == 1 {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	return string(key)
}

// RecoveryFor returns the recovery for the given syndrome key (the zero
// vector when the syndrome was not constrained during synthesis).
func (b *Block) RecoveryFor(key string, n int) f2.Vec {
	if r, ok := b.Recovery[key]; ok {
		return r
	}
	return f2.NewVec(n)
}

// Options tune the synthesis; the zero value is the paper's setting.
type Options struct {
	// MaxU caps the number of additional measurements; 0 means the rank
	// of the detection group (always sufficient).
	MaxU int

	// NoPairPruning disables the precomputed incompatible-pair clauses
	// (σ(e) ≠ σ(e') for pairs that cannot share a recovery), leaving their
	// detection entirely to the solver. Exists for the ablation benchmark;
	// results are identical, only solving time changes.
	NoPairPruning bool
}

// errEncodingMismatch reports a probe the residual encoding found
// satisfiable and the recovery encoding did not. The two are equisatisfiable,
// so this is a bug, never a reason to try a larger u.
var errEncodingMismatch = errors.New("correct: residual encoding satisfiable but recovery encoding not")

// Synthesize finds the optimal correction block for the error class errs.
//
//	det  — basis of the group whose measurement distinguishes the errors
//	       (opposite-type stabilizers of |0>_L, e.g. span(Hz ∪ Lz) for X
//	       errors);
//	red  — basis modulo which residual errors act trivially (same-type
//	       stabilizers, e.g. span(Hx) for X errors);
//	errs — canonical coset representatives of the class's errors,
//	       including benign members (so that a recovery never promotes a
//	       weight-≤1 error to a dangerous one). The zero vector should be
//	       included whenever a signal can fire without a data error
//	       (measurement faults).
//
// Cancelling ctx aborts the underlying SAT search with ctx.Err().
func Synthesize(ctx context.Context, det, red *f2.Mat, errs []f2.Vec, opt Options) (*Block, error) {
	if len(errs) == 0 {
		return &Block{Recovery: map[string]f2.Vec{}}, nil
	}
	c := newClass(det, red, errs, opt)
	return c.search(func(u, v int) (*Block, error) { return c.solveCorrection(ctx, u, v) })
}

// search runs the optimization over (u, v) probes: u upward from 0, then a
// binary search on v for the first feasible u. probe returns nil for an
// unsatisfiable probe and the block of its model otherwise.
func (c *class) search(probe func(u, v int) (*Block, error)) (*Block, error) {
	maxU := c.opt.MaxU
	if maxU <= 0 {
		maxU = c.gens.Rows()
	}
	for u := 0; u <= maxU; u++ {
		blk, err := probe(u, -1)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			continue
		}
		if u == 0 {
			return blk, nil
		}
		// Minimize total weight for this u by binary search on v.
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
	return nil, fmt.Errorf("correct: no correction with up to %d measurements; class has inequivalent errors sharing the full syndrome", maxU)
}

// class is one error class with everything its probes share, computed once
// per Synthesize call.
//
// A residual index a ∈ {0..n} names the weight-≤1 residual w_a: the single
// flip on qubit a, or no flip for a = n. Congruence modulo the reduction
// group S is decided by syndromes under H, a basis of S's orthogonal
// complement: x ∈ S iff H·x = 0.
type class struct {
	errs    []f2.Vec
	gens    *f2.Mat // independent basis of the detection group
	redGens *f2.Mat // independent basis of the reduction group S
	opt     Options
	pairs   []pair // every k1 < k2, in that order
}

// pair relates errors e1 = errs[k1] and e2 = errs[k2].
type pair struct {
	k1, k2 int
	// compatible reports that some recovery serves both, i.e.
	// wt_S(e1 ⊕ e2) ≤ 2.
	compatible bool
	// next[a] lists the residuals b that e2 may pick when e1 picks a and
	// both share a recovery: H·(e1 ⊕ e2 ⊕ w_a ⊕ w_b) = 0. Pairs with the
	// same H·(e1 ⊕ e2) share one table.
	next [][]int
}

func newClass(det, red *f2.Mat, errs []f2.Vec, opt Options) *class {
	c := &class{errs: errs, gens: det.SpanBasis(), redGens: red.SpanBasis(), opt: opt}
	n := c.gens.Cols()
	h := c.redGens.Kernel()

	// Syndromes of the residuals, grouped: bySynd[key] lists every residual
	// with that syndrome.
	residual := make([]f2.Vec, n+1)
	bySynd := map[string][]int{}
	for a := 0; a <= n; a++ {
		w := f2.NewVec(n)
		if a < n {
			w.Set(a, true)
		}
		residual[a] = h.MulVec(w)
		key := residual[a].Key()
		bySynd[key] = append(bySynd[key], a)
	}
	synd := make([]f2.Vec, len(errs))
	for k, e := range errs {
		synd[k] = h.MulVec(e)
	}
	type table struct {
		next       [][]int
		compatible bool
	}
	tables := map[string]table{}
	for k1 := range errs {
		for k2 := k1 + 1; k2 < len(errs); k2++ {
			d := synd[k1].Xor(synd[k2])
			t, ok := tables[d.Key()]
			if !ok {
				t.next = make([][]int, n+1)
				for a := range t.next {
					t.next[a] = bySynd[d.Xor(residual[a]).Key()]
					t.compatible = t.compatible || len(t.next[a]) > 0
				}
				tables[d.Key()] = t
			}
			c.pairs = append(c.pairs, pair{k1: k1, k2: k2, compatible: t.compatible, next: t.next})
		}
	}
	return c
}

// solveCorrection decides a single (u, v) instance; v < 0 disables the
// weight bound. It returns nil if unsatisfiable. The residual encoding
// decides; only a satisfiable probe builds the recovery encoding, whose
// model is the block.
func (c *class) solveCorrection(ctx context.Context, u, v int) (*Block, error) {
	ok, err := c.decideCorrection(ctx, u, v)
	if err != nil || !ok {
		return nil, err
	}
	blk, err := c.extractCorrection(ctx, u, v)
	if err == nil && blk == nil {
		err = fmt.Errorf("u=%d v=%d: %w", u, v, errEncodingMismatch)
	}
	return blk, err
}

// measurements adds what both encodings share: u lexicographically ordered,
// non-trivial measurements sel[i] (coefficients over the detection basis),
// the total weight bound v (v < 0: none) and the syndrome bits
// sigma[k][i] = s_i · e_k.
func (c *class) measurements(b *cnf.Builder, u, v int) (sel, sigma [][]sat.Lit) {
	r, n := c.gens.Rows(), c.gens.Cols()
	sel = make([][]sat.Lit, u)
	for i := range sel {
		sel[i] = b.NewVars(r)
		b.AddClause(sel[i]...) // non-trivial measurement
	}
	for i := 0; i+1 < u; i++ {
		addLexLE(b, sel[i], sel[i+1])
	}

	// Weight bound.
	if v >= 0 && u > 0 {
		var bits []sat.Lit
		for i := 0; i < u; i++ {
			for q := 0; q < n; q++ {
				var lits []sat.Lit
				for j := 0; j < r; j++ {
					if c.gens.Row(j).Get(q) {
						lits = append(lits, sel[i][j])
					}
				}
				if len(lits) > 0 {
					bits = append(bits, b.Xor(lits...))
				}
			}
		}
		b.AtMostK(bits, v)
	}

	sigma = make([][]sat.Lit, len(c.errs))
	for k, e := range c.errs {
		sigma[k] = make([]sat.Lit, u)
		for i := 0; i < u; i++ {
			var lits []sat.Lit
			for j := 0; j < r; j++ {
				if c.gens.Row(j).Dot(e) == 1 {
					lits = append(lits, sel[i][j])
				}
			}
			sigma[k][i] = b.Xor(lits...)
		}
	}
	return sel, sigma
}

// link constrains every pair of errors. A pair no recovery can serve must
// get different syndromes; for the others, join receives the literal
// "same syndrome" and adds the encoding's own clauses. It reports false when
// u = 0 cannot separate an incompatible pair, i.e. the probe is UNSAT.
func (c *class) link(b *cnf.Builder, sigma [][]sat.Lit, join func(p *pair, eq sat.Lit)) bool {
	for pi := range c.pairs {
		p := &c.pairs[pi]
		s1, s2 := sigma[p.k1], sigma[p.k2]
		if !c.opt.NoPairPruning && !p.compatible {
			// No shared recovery exists: require σ(e1) != σ(e2).
			var disj []sat.Lit
			for i := range s1 {
				disj = append(disj, b.Xor(s1[i], s2[i]))
			}
			if len(disj) == 0 {
				return false
			}
			b.AddClause(disj...)
			continue
		}
		var eqLits []sat.Lit
		for i := range s1 {
			eqLits = append(eqLits, b.Xor(s1[i], s2[i]).Neg())
		}
		join(p, b.And(eqLits...))
	}
	return true
}

// decideCorrection decides a (u, v) probe with the residual encoding: each
// error picks exactly one residual z[k][a], and a same-syndrome pair whose
// e1 picks a forces e2 to pick from next[a]. Congruence modulo S is
// transitive, so these pairwise constraints make every syndrome cell share
// one recovery up to S, which is all a recovery must achieve; the encoding is
// equisatisfiable with the recovery encoding.
func (c *class) decideCorrection(ctx context.Context, u, v int) (bool, error) {
	n := c.gens.Cols()
	b := cnf.NewBuilder()
	_, sigma := c.measurements(b, u, v)
	z := make([][]sat.Lit, len(c.errs))
	for k := range z {
		z[k] = b.NewVars(n + 1)
		b.AddClause(z[k]...)
		b.AtMostOne(z[k]...)
	}
	ok := c.link(b, sigma, func(p *pair, eq sat.Lit) {
		for a, next := range p.next {
			if len(next) == n+1 {
				continue // every pick of e2 is allowed
			}
			cl := make([]sat.Lit, 0, len(next)+2)
			cl = append(cl, eq.Neg(), z[p.k1][a].Neg())
			for _, bb := range next {
				cl = append(cl, z[p.k2][bb])
			}
			b.AddClause(cl...)
		}
	})
	if !ok {
		return false, nil
	}
	return b.SolveContext(ctx)
}

// extractCorrection solves a (u, v) probe with the recovery encoding and
// returns the block of its model, or nil if unsatisfiable.
//
// Encoding: instead of materializing all 2^u syndrome cells, each error gets
// its own recovery vector c_e, and equal syndromes force equal recoveries
// (σ(e) = σ(e') → c_e = c_e'). This is equisatisfiable with the paper's
// cell formulation but linear in u. Pairs of errors that cannot share any
// recovery — exactly those with reduced weight wt_S(e ⊕ e') > 2 — directly
// require differing syndromes, which prunes the search substantially.
func (c *class) extractCorrection(ctx context.Context, u, v int) (*Block, error) {
	r, n, rr := c.gens.Rows(), c.gens.Cols(), c.redGens.Rows()
	b := cnf.NewBuilder()
	sel, sigma := c.measurements(b, u, v)

	// Per-error recovery with correctability: wt(e ⊕ c_e ⊕ t) ≤ 1.
	recovery := make([][]sat.Lit, len(c.errs))
	for k, e := range c.errs {
		recovery[k] = b.NewVars(n)
		t := b.NewVars(rr)
		res := make([]sat.Lit, n)
		for q := 0; q < n; q++ {
			lits := []sat.Lit{recovery[k][q]}
			for l := 0; l < rr; l++ {
				if c.redGens.Row(l).Get(q) {
					lits = append(lits, t[l])
				}
			}
			x := b.Xor(lits...)
			if e.Get(q) {
				x = x.Neg()
			}
			res[q] = x
		}
		b.AtMostOne(res...)
	}

	// Same syndrome forces the same recovery.
	ok := c.link(b, sigma, func(p *pair, eq sat.Lit) {
		for q := 0; q < n; q++ {
			b.AddClause(eq.Neg(), recovery[p.k1][q].Neg(), recovery[p.k2][q])
			b.AddClause(eq.Neg(), recovery[p.k1][q], recovery[p.k2][q].Neg())
		}
	})
	if !ok {
		return nil, nil
	}
	ok, err := b.SolveContext(ctx)
	if err != nil || !ok {
		return nil, err
	}

	// Extract measurements and per-cell recoveries.
	blk := &Block{Recovery: map[string]f2.Vec{}}
	for i := 0; i < u; i++ {
		s := f2.NewVec(n)
		for j := 0; j < r; j++ {
			if b.Val(sel[i][j]) {
				s.XorInPlace(c.gens.Row(j))
			}
		}
		blk.Stabs = append(blk.Stabs, s)
	}
	for k, e := range c.errs {
		key := blk.SyndromeOf(e)
		if _, done := blk.Recovery[key]; done {
			continue
		}
		rec := f2.NewVec(n)
		for q := 0; q < n; q++ {
			if b.Val(recovery[k][q]) {
				rec.Set(q, true)
			}
		}
		blk.Recovery[key] = rec
	}
	return blk, nil
}

// Check verifies a block against its error class: every error must be
// reduced to stabilizer-weight ≤ 1 by the recovery of its syndrome cell.
// It returns the first violating error, or ok.
func Check(blk *Block, cs *code.CSS, kind code.ErrType, errs []f2.Vec) error {
	for _, e := range errs {
		key := blk.SyndromeOf(e)
		c := blk.RecoveryFor(key, cs.N)
		if w := cs.ReducedWeight(kind, e.Xor(c)); w > 1 {
			return fmt.Errorf("correct: error %v in cell %q leaves residual weight %d", e, key, w)
		}
	}
	return nil
}

// addLexLE constrains vector x <= y lexicographically.
func addLexLE(b *cnf.Builder, x, y []sat.Lit) {
	prefixEq := b.True()
	for k := 0; k < len(x); k++ {
		b.AddClause(prefixEq.Neg(), x[k].Neg(), y[k])
		if k+1 < len(x) {
			eqk := b.Xor(x[k], y[k]).Neg()
			prefixEq = b.And(prefixEq, eqk)
		}
	}
}
