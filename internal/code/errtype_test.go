package code

import (
	"sync"
	"testing"

	"repro/internal/f2"
)

// lowWeightErrors returns every error of weight 1..maxW on n qubits.
func lowWeightErrors(n, maxW int) []f2.Vec {
	var out []f2.Vec
	var rec func(start int, e f2.Vec, w int)
	rec = func(start int, e f2.Vec, w int) {
		if w > 0 {
			out = append(out, e.Clone())
		}
		if w == maxW {
			return
		}
		for q := start; q < n; q++ {
			e.Flip(q)
			rec(q+1, e, w+1)
			e.Flip(q)
		}
	}
	rec(0, f2.NewVec(n), 0)
	return out
}

// TestReducedWeightMatchesCosetMinWeight holds the cached reduction basis to
// a fresh reduction: on every catalog code, in both sectors, for every error
// of weight <= 3, ReducedWeight equals f2.CosetMinWeight over the reduction
// group, and CosetRep is a member of e's coset with no bit on any pivot of
// the group's RREF basis.
func TestReducedWeightMatchesCosetMinWeight(t *testing.T) {
	for _, cs := range Catalog() {
		errs := lowWeightErrors(cs.N, 3)
		for _, kind := range []ErrType{ErrX, ErrZ} {
			group := cs.ReductionGroup(kind)
			pivots := group.SpanBasis().RREF()
			for _, e := range errs {
				if got, want := cs.ReducedWeight(kind, e), f2.CosetMinWeight(e, group); got != want {
					t.Fatalf("%s %v %v: ReducedWeight %d, CosetMinWeight %d", cs.Name, kind, e, got, want)
				}
				rep := cs.CosetRep(kind, e)
				if !group.InSpan(rep.Xor(e)) {
					t.Fatalf("%s %v %v: CosetRep %v outside the coset", cs.Name, kind, e, rep)
				}
				for _, p := range pivots {
					if rep.Get(p) {
						t.Fatalf("%s %v %v: CosetRep %v keeps pivot %d", cs.Name, kind, e, rep, p)
					}
				}
			}
		}
	}
}

// TestReductionBasisConcurrentFirstUse has eight goroutines make the first
// ReducedWeight and CosetRep calls on one shared catalog code at once (run
// under -race), each checking its answers against a private instance.
func TestReductionBasisConcurrentFirstUse(t *testing.T) {
	for i, shared := range Catalog() {
		private := Catalog()[i]
		errs := lowWeightErrors(shared.N, 2)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, e := range errs {
					kind := ErrType((g + k) % 2)
					if got, want := shared.ReducedWeight(kind, e), private.ReducedWeight(kind, e); got != want {
						t.Errorf("%s %v %v: shared ReducedWeight %d, private %d", shared.Name, kind, e, got, want)
						return
					}
					if got, want := shared.CosetRep(kind, e), private.CosetRep(kind, e); !got.Equal(want) {
						t.Errorf("%s %v %v: shared CosetRep %v, private %v", shared.Name, kind, e, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
