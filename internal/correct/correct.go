// Package correct implements the paper's central contribution: SAT-based
// synthesis of optimal correction circuits (CORRECTION CIRCUIT SYNTHESIS).
//
// Given the set E of errors that share one verification signature (one
// branch of the deterministic protocol), the synthesizer finds u stabilizers
// s_1..s_u from the detection-group span with minimal u and minimal total
// weight v = Σ wt(s_i), such that all errors with the same extended syndrome
// b ∈ {0,1}^u are reduced to a correctable error (stabilizer-reduced weight
// ≤ 1) by one shared Pauli recovery c_b. Optimality follows the paper: u
// upward to the first feasible u*, then the least total weight v* of u*
// measurements, with the decision problem encoded as CNF two ways.
//
// The residual encoding decides: every error picks which weight-≤1
// residual w its recovery leaves, and errors with equal syndromes must pick
// residuals that make their recoveries congruent modulo the stabilizers, a
// syndrome-table lookup. With no free recovery or stabilizer bits, the
// solver never refutes equivalent recoveries one by one, so the UNSAT
// probes at the optimality boundary stay cheap. It decides u = 0, 1, … up
// to u* and gives v* (cnf.Builder.MinTrue; v* = 0 at u* = 0). The recovery
// encoding, which spells out each recovery bit by bit, is then solved once,
// at (u*, v*), and its model is the block; an UNSAT answer or a block whose
// weight is not v* is stabsel.ErrMismatch. The residual encoding's own
// models would do as well, but they pick other measurements and recoveries
// among the optimal ones, and those protocols are worse in simulation (the
// Surface code's stratified logical error rate at p = 1e-2 rises by 30%,
// Carbon's by about 3%).
//
// The selection rows with their weight and syndrome bits are stabsel.Sel.
// Every solve runs on its caller's goroutine, on one builder reset in
// between: a reset solver searches exactly like a fresh one
// (sat.Solver.Reset) and keeps its storage.
//
// The u measurements are interchangeable: an unbounded decide keeps one
// RREF basis per span, |GL(u,2)| times fewer models than the u! row orders
// lex removes, and the weighted solves keep lex (see measurements).
//
// Synthesize is a pure function of the RREF bases of det and red and the
// ordered errors. A Memo keys on exactly those, so it can answer a problem
// solved before with the bytes a fresh solve would give. dftsp.Service
// holds one; dftsp.Synthesize and the CLIs solve every problem afresh.
package correct

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/sat"
	"repro/internal/stabsel"
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
func Synthesize(ctx context.Context, det, red *f2.Mat, errs []f2.Vec) (*Block, error) {
	return synthesize(ctx, det.SpanBasis(), red.SpanBasis(), errs)
}

// synthesize is Synthesize on the RREF bases of det and red.
func synthesize(ctx context.Context, gens, redGens *f2.Mat, errs []f2.Vec) (*Block, error) {
	c := newClass(gens, redGens, errs)
	c.b = cnf.NewBuilder()
	return c.search(ctx).run()
}

// search is a class's search, its three kinds of solve as closures.
type search struct {
	maxU    int // the detection rank
	decide  func(u int) (bool, error)
	least   func(u int) (int, error)
	extract func(u, v int) (*Block, bool, error)
}

func (c *class) search(ctx context.Context) search {
	return search{
		maxU:    c.gens.Rows(),
		decide:  func(u int) (bool, error) { return c.decide(ctx, u, stabsel.Unbounded, true) },
		least:   func(u int) (int, error) { return c.least(ctx, u) },
		extract: func(u, v int) (*Block, bool, error) { return c.extractCorrection(ctx, u, v) },
	}
}

// run decides u = 0, 1, … up to maxU and extracts at the first satisfiable
// u*, under the bound v* = least(u*) (none at u* = 0, where it is 0).
func (s search) run() (*Block, error) {
	for u := 0; u <= s.maxU; u++ {
		feasible, err := s.decide(u)
		if err != nil {
			return nil, err
		}
		if !feasible {
			continue
		}
		v := stabsel.Unbounded
		if u > 0 {
			if v, err = s.least(u); err != nil {
				return nil, err
			}
		}
		blk, ok, err := s.extract(u, v)
		if err == nil && (!ok || u > 0 && blk.CNOTs() != v) {
			blk, err = nil, fmt.Errorf("correct: extraction at u=%d v=%d: %w", u, v, stabsel.ErrMismatch)
		}
		return blk, err
	}
	return nil, fmt.Errorf("correct: no correction with up to %[1]d measurements (detection rank %[1]d); class has inequivalent errors sharing the full syndrome", s.maxU)
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
	pairs   []pair  // every k1 < k2, in that order
	// b is the builder every probe resets and reuses; nil gives each probe
	// a new one, the fresh-solver reference of the tests.
	b *cnf.Builder
}

// builder returns an empty builder for the next probe. The previous
// probe's formula and model are gone once it does.
func (c *class) builder() *cnf.Builder {
	if c.b == nil {
		return cnf.NewBuilder()
	}
	c.b.Reset()
	return c.b
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

// newClass builds the class of errs over gens and redGens, the RREF bases
// of the detection and reduction groups.
func newClass(gens, redGens *f2.Mat, errs []f2.Vec) *class {
	c := &class{errs: errs, gens: gens, redGens: redGens}
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

// least returns v*(u) for u ≥ 1, the least total weight of u lex-ordered
// measurements that the residual encoding satisfies (cnf.Builder.MinTrue).
func (c *class) least(ctx context.Context, u int) (int, error) {
	b, weight := c.residual(u, stabsel.Least, false)
	return b.MinTrue(ctx, weight)
}

// measurements adds what both encodings share, in this order: u
// measurements sel, their symmetry break, the weight bits for bound v and
// the syndrome bits sigma[k][i] = s_i · e_k.
//
// With rref the rows of sel are an RREF basis of their span (cnf.RREF),
// otherwise lex-ordered. Only an unbounded decide may use rref: its answer
// depends on the span alone, so the two forms are equisatisfiable for
// u ≤ rank(det) (see ARCHITECTURE.md). A weight bound depends on the basis,
// and an extracted model is the protocol, so those keep lex.
func (c *class) measurements(b *cnf.Builder, u, v int, rref bool) (sel *stabsel.Sel, sigma [][]sat.Lit, weight []sat.Lit) {
	sel = stabsel.New(b, c.gens, u)
	if rref {
		b.RREF(sel.Rows)
	} else {
		sel.Lex()
	}
	weight = sel.Weight(v)
	sigma = make([][]sat.Lit, len(c.errs))
	for k, e := range c.errs {
		sigma[k] = sel.Syndrome(e)
	}
	return sel, sigma, weight
}

// link constrains every pair of errors. A pair no recovery can serve must
// get different syndromes; for the others, join receives the literal
// "same syndrome" and adds the encoding's own clauses. It reports false when
// u = 0 cannot separate an incompatible pair, i.e. the probe is UNSAT.
func (c *class) link(b *cnf.Builder, sigma [][]sat.Lit, join func(p *pair, eq sat.Lit)) bool {
	for pi := range c.pairs {
		p := &c.pairs[pi]
		s1, s2 := sigma[p.k1], sigma[p.k2]
		if !p.compatible {
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

// residual builds the residual encoding of a (u, v) probe: each error
// picks exactly one residual z[k][a], and a same-syndrome pair whose e1
// picks a forces e2 to pick from next[a]. Congruence modulo S is
// transitive, so these pairwise constraints make every syndrome cell share
// one recovery up to S, which is all a recovery must achieve; the encoding
// is equisatisfiable with the recovery encoding. The symmetry break of sel
// is the caller's (see measurements); rref requires v < 0 and
// u ≤ rank(det). It returns a nil builder for a probe known UNSAT before
// solving, and the weight bits of measurements.
func (c *class) residual(u, v int, rref bool) (*cnf.Builder, []sat.Lit) {
	n := c.gens.Cols()
	b := c.builder()
	_, sigma, weight := c.measurements(b, u, v, rref)
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
		return nil, nil
	}
	return b, weight
}

// decide solves the residual encoding of a (u, v) probe.
func (c *class) decide(ctx context.Context, u, v int, rref bool) (bool, error) {
	b, _ := c.residual(u, v, rref)
	if b == nil {
		return false, nil
	}
	return b.SolveContext(ctx)
}

// extractCorrection solves a (u, v) probe with the recovery encoding and
// returns the block of its model; ok is false when it is unsatisfiable.
//
// Encoding: instead of materializing all 2^u syndrome cells, each error gets
// its own recovery vector c_e, and equal syndromes force equal recoveries
// (σ(e) = σ(e') → c_e = c_e'). This is equisatisfiable with the paper's
// cell formulation but linear in u. Pairs of errors that cannot share any
// recovery — exactly those with reduced weight wt_S(e ⊕ e') > 2 — directly
// require differing syndromes, which prunes the search substantially.
func (c *class) extractCorrection(ctx context.Context, u, v int) (blk *Block, ok bool, err error) {
	n, rr := c.gens.Cols(), c.redGens.Rows()
	b := c.builder()
	sel, sigma, _ := c.measurements(b, u, v, false)

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
	linked := c.link(b, sigma, func(p *pair, eq sat.Lit) {
		for q := 0; q < n; q++ {
			b.AddClause(eq.Neg(), recovery[p.k1][q].Neg(), recovery[p.k2][q])
			b.AddClause(eq.Neg(), recovery[p.k1][q], recovery[p.k2][q].Neg())
		}
	})
	if !linked {
		return nil, false, nil
	}
	if ok, err = b.SolveContext(ctx); err != nil || !ok {
		return nil, false, err
	}

	// Extract measurements and per-cell recoveries.
	blk = &Block{Stabs: sel.Stabs(), Recovery: map[string]f2.Vec{}}
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
	return blk, true, nil
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
