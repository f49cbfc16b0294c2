// Package verify implements the SAT-based synthesis of verification
// circuits: given the set of dangerous errors produced by single faults in a
// preparation circuit, it finds a minimum set of stabilizer measurements
// (then minimum total CNOT weight) such that every dangerous error
// anticommutes with at least one measured stabilizer. This corresponds to
// step (b) of the paper's protocol and reuses the formulation of Peham et
// al. (Ref. [22]).
//
// The optimization is stabsel.Search: u measurements upward, then a
// binary search on the total weight v whose probes below the least weight
// v* (cnf.Builder.MinTrue over the weight bits, as correction synthesis
// uses it too) are UNSAT without a solve. Every other probe is solved on
// one builder, reset in between (a reset solver searches like a fresh
// one), and its model is the verification.
package verify

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/sat"
	"repro/internal/stabsel"
)

// DangerousErrors extracts, from all single faults of the preparation
// circuit, the sector-t output errors with stabilizer-reduced weight >= 2
// (the sets E_X(C) / E_Z(C) of the paper), deduplicated modulo the
// reduction group. The representatives returned are canonical coset reps.
func DangerousErrors(c *code.CSS, prep *circuit.Circuit, t code.ErrType) []f2.Vec {
	seen := map[string]bool{}
	var out []f2.Vec
	for _, fault := range prep.SingleFaults() {
		var comp f2.Vec
		if t == code.ErrX {
			comp = fault.Final.X
		} else {
			comp = fault.Final.Z
		}
		if comp.IsZero() {
			continue
		}
		rep := c.CosetRep(t, comp)
		key := rep.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if c.ReducedWeight(t, rep) >= 2 {
			out = append(out, rep)
		}
	}
	sortVecs(out)
	return out
}

// Result is a synthesized verification: the measured stabilizers, each an
// element of the detection group span.
type Result struct {
	Stabs []f2.Vec
}

// Ancillas returns the number of verification measurements.
func (r *Result) Ancillas() int { return len(r.Stabs) }

// CNOTs returns the total CNOT count (sum of stabilizer weights).
func (r *Result) CNOTs() int {
	w := 0
	for _, s := range r.Stabs {
		w += s.Weight()
	}
	return w
}

// Synthesize finds a verification measuring the minimum number of
// stabilizers from the span of det, of minimum total weight, detecting every
// error in errs (odd overlap with at least one measurement). An empty errs
// needs no verification: the Result is empty (no Stabs) and the error nil.
// Cancelling ctx aborts the underlying SAT search with ctx.Err().
func Synthesize(ctx context.Context, det *f2.Mat, errs []f2.Vec) (*Result, error) {
	if len(errs) == 0 {
		return &Result{}, nil
	}
	return newProblem(det, errs).synthesize(ctx)
}

// EnumerateOptimal returns all verifications with the optimal measurement
// count and total weight (up to limit, <= 0 meaning a default of 64),
// deduplicated as unordered sets of measured stabilizers. The first element
// equals the Synthesize result's optimum parameters.
func EnumerateOptimal(ctx context.Context, det *f2.Mat, errs []f2.Vec, limit int) ([]*Result, error) {
	if limit <= 0 {
		limit = 64
	}
	if len(errs) == 0 {
		return []*Result{{}}, nil
	}
	p := newProblem(det, errs)
	opt, err := p.synthesize(ctx)
	if err != nil {
		return nil, err
	}
	b, sel, _ := p.build(opt.Ancillas(), opt.CNOTs())
	seen := map[string]bool{}
	var out []*Result
	for iter := 0; len(out) < limit && iter < 4096; iter++ {
		ok, err := b.SolveContext(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		stabs := sel.Stabs()
		key := stabsKey(stabs)
		if !seen[key] {
			seen[key] = true
			out = append(out, &Result{Stabs: stabs})
		}
		// Block this selection-variable assignment.
		var all []sat.Lit
		for _, row := range sel.Rows {
			all = append(all, row...)
		}
		b.Block(all)
	}
	return out, nil
}

// problem is one verification search: the detection basis, computed once,
// the errors, and the builder every probe resets and reuses.
type problem struct {
	gens *f2.Mat
	errs []f2.Vec
	b    *cnf.Builder
}

func newProblem(det *f2.Mat, errs []f2.Vec) *problem {
	return &problem{gens: det.SpanBasis(), errs: errs, b: cnf.NewBuilder()}
}

// synthesize runs the search for a non-empty errs.
func (p *problem) synthesize(ctx context.Context) (*Result, error) {
	res, ok, err := p.search(ctx).Run()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("verify: no verification exists with up to %d measurements (an error no detection-group element anticommutes with)", p.gens.Rows())
	}
	return res, nil
}

// search is the problem's optimal-measurement search (stabsel.Search): u
// from 1 to the detection rank, each unbounded probe solved once, and v*
// from the formula with unbounded weight bits.
func (p *problem) search(ctx context.Context) stabsel.Search[*Result] {
	return stabsel.Search[*Result]{
		MaxU:  p.gens.Rows(),
		Solve: func(u, v int) (*Result, bool, error) { return p.solve(ctx, u, v) },
		Least: func(u int) (int, error) {
			b, _, weight := p.build(u, stabsel.Least)
			return b.MinTrue(ctx, weight)
		},
	}
}

// solve decides one (u, v) probe; v < 0 disables the weight bound. It
// returns the measured stabilizers of its model; ok is false when it is
// unsatisfiable.
func (p *problem) solve(ctx context.Context, u, v int) (*Result, bool, error) {
	b, sel, _ := p.build(u, v)
	if ok, err := b.SolveContext(ctx); err != nil || !ok {
		return nil, false, err
	}
	return &Result{Stabs: sel.Stabs()}, true, nil
}

// build constructs the formula of probe (u, v) on an empty builder, in this
// order: the selection rows (sel.Rows[i][j] selects generator j for
// measurement i), the detection clauses, the weight bits for bound v
// (stabsel.Sel.Weight) and the lex chain. It returns the builder, the
// selection and the weight bits.
func (p *problem) build(u, v int) (*cnf.Builder, *stabsel.Sel, []sat.Lit) {
	b := p.b
	b.Reset()
	sel := stabsel.New(b, p.gens, u)
	// Detection: every error anticommutes with some measurement (an error
	// no basis row detects gets an all-false clause).
	for _, e := range p.errs {
		b.AddClause(sel.Syndrome(e)...)
	}
	weight := sel.Weight(v)
	sel.Lex()
	return b, sel, weight
}

func sortVecs(vs []f2.Vec) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].String() < vs[j].String() })
}

func stabsKey(stabs []f2.Vec) string {
	ss := make([]string, len(stabs))
	for i, s := range stabs {
		ss[i] = s.String() + "|"
	}
	sort.Strings(ss)
	return strings.Join(ss, "")
}
