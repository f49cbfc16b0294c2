// Package verify implements the SAT-based synthesis of verification
// circuits: given the set of dangerous errors produced by single faults in a
// preparation circuit, it finds a minimum set of stabilizer measurements
// (then minimum total CNOT weight) such that every dangerous error
// anticommutes with at least one measured stabilizer. This corresponds to
// step (b) of the paper's protocol and reuses the formulation of Peham et
// al. (Ref. [22]).
package verify

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/sat"
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
// error in errs (odd overlap with at least one measurement). A nil Result
// with nil error is returned when errs is empty (nothing to verify).
// Cancelling ctx aborts the underlying SAT search with ctx.Err().
//
// Every (u, v) probe builds its formula on one builder, reset in between;
// a reset solver searches exactly like a fresh one (sat.Solver.Reset).
func Synthesize(ctx context.Context, det *f2.Mat, errs []f2.Vec) (*Result, error) {
	if len(errs) == 0 {
		return &Result{}, nil
	}
	b := cnf.NewBuilder()
	maxU := det.SpanBasis().Rows()
	for u := 1; u <= maxU; u++ {
		// First decide feasibility for this u without a weight bound.
		stabs, err := solveVerification(ctx, b, det, errs, u, -1)
		if err != nil {
			return nil, err
		}
		if stabs == nil {
			continue
		}
		// Then shrink the weight bound to the optimum (binary search).
		bestStabs := stabs
		lo, hi := u, totalWeight(stabs)-1
		for lo <= hi {
			mid := (lo + hi) / 2
			cand, err := solveVerification(ctx, b, det, errs, u, mid)
			if err != nil {
				return nil, err
			}
			if cand == nil {
				lo = mid + 1
			} else {
				bestStabs = cand
				hi = totalWeight(cand) - 1
			}
		}
		return &Result{Stabs: bestStabs}, nil
	}
	return nil, fmt.Errorf("verify: no verification exists with up to %d measurements (unreachable for valid inputs)", maxU)
}

// EnumerateOptimal returns all verifications with the optimal measurement
// count and total weight (up to limit, <= 0 meaning a default of 64),
// deduplicated as unordered sets of measured stabilizers. The first element
// equals the Synthesize result's optimum parameters.
func EnumerateOptimal(ctx context.Context, det *f2.Mat, errs []f2.Vec, limit int) ([]*Result, error) {
	if limit <= 0 {
		limit = 64
	}
	opt, err := Synthesize(ctx, det, errs)
	if err != nil {
		return nil, err
	}
	if len(opt.Stabs) == 0 {
		return []*Result{opt}, nil
	}
	u, v := opt.Ancillas(), opt.CNOTs()
	b := cnf.NewBuilder()
	sel, _ := buildVerification(b, det, errs, u, v)
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
		stabs := extractStabs(b, sel, det, u)
		key := stabsKey(stabs)
		if !seen[key] {
			seen[key] = true
			out = append(out, &Result{Stabs: stabs})
		}
		// Block this selection-variable assignment.
		var all []sat.Lit
		for _, row := range sel {
			all = append(all, row...)
		}
		b.Block(all)
	}
	return out, nil
}

// solveVerification decides one (u, v) instance on b, which it resets
// first; v < 0 disables the weight bound. It returns the measured
// stabilizers or nil if unsatisfiable.
func solveVerification(ctx context.Context, b *cnf.Builder, det *f2.Mat, errs []f2.Vec, u, v int) ([]f2.Vec, error) {
	b.Reset()
	sel, ok := buildVerification(b, det, errs, u, v)
	if !ok {
		return nil, nil
	}
	sat, err := b.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	if !sat {
		return nil, nil
	}
	return extractStabs(b, sel, det, u), nil
}

// buildVerification constructs the CNF on the empty builder b. sel[i][j]
// selects generator j for measurement i. ok=false signals a
// trivially-unsatisfiable build.
func buildVerification(b *cnf.Builder, det *f2.Mat, errs []f2.Vec, u, v int) ([][]sat.Lit, bool) {
	gens := det.SpanBasis()
	r := gens.Rows()
	n := gens.Cols()

	sel := make([][]sat.Lit, u)
	for i := range sel {
		sel[i] = b.NewVars(r)
	}

	// Each measurement must be non-trivial (at least one generator).
	for i := 0; i < u; i++ {
		b.AddClause(sel[i]...)
	}

	// Detection: every error anticommutes with some measurement.
	for _, e := range errs {
		var detLits []sat.Lit
		// Generators with odd overlap with e.
		var odd []int
		for j := 0; j < r; j++ {
			if gens.Row(j).Dot(e) == 1 {
				odd = append(odd, j)
			}
		}
		if len(odd) == 0 {
			// Undetectable error: unsatisfiable for every u.
			return nil, false
		}
		for i := 0; i < u; i++ {
			lits := make([]sat.Lit, 0, len(odd))
			for _, j := range odd {
				lits = append(lits, sel[i][j])
			}
			detLits = append(detLits, b.Xor(lits...))
		}
		b.AddClause(detLits...)
	}

	// Weight bound over all support bits of all measurements.
	if v >= 0 {
		var bits []sat.Lit
		for i := 0; i < u; i++ {
			for q := 0; q < n; q++ {
				var lits []sat.Lit
				for j := 0; j < r; j++ {
					if gens.Row(j).Get(q) {
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

	// Symmetry breaking: measurements ordered by selection bit-vector.
	for i := 0; i+1 < u; i++ {
		b.LexLE(sel[i], sel[i+1])
	}
	return sel, true
}

func extractStabs(b *cnf.Builder, sel [][]sat.Lit, det *f2.Mat, u int) []f2.Vec {
	gens := det.SpanBasis()
	out := make([]f2.Vec, 0, u)
	for i := 0; i < u; i++ {
		s := f2.NewVec(gens.Cols())
		for j := 0; j < gens.Rows(); j++ {
			if b.Val(sel[i][j]) {
				s.XorInPlace(gens.Row(j))
			}
		}
		out = append(out, s)
	}
	return out
}

func totalWeight(stabs []f2.Vec) int {
	w := 0
	for _, s := range stabs {
		w += s.Weight()
	}
	return w
}

func sortVecs(vs []f2.Vec) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].String() < vs[j].String() })
}

func stabsKey(stabs []f2.Vec) string {
	ss := make([]string, len(stabs))
	for i, s := range stabs {
		ss[i] = s.String()
	}
	sort.Strings(ss)
	key := ""
	for _, s := range ss {
		key += s + "|"
	}
	return key
}
