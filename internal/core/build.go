package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/prep"
	"repro/internal/verify"
)

// Build synthesizes the full deterministic fault-tolerant preparation
// protocol for |0...0>_L of cs under the given configuration. ctx is
// threaded through every synthesis stage (preparation search, verification
// and correction SAT solving); cancelling it aborts the build promptly with
// an error matching ctx.Err() via errors.Is.
func Build(ctx context.Context, cs *code.CSS, cfg Config) (*Protocol, error) {
	prepC, err := buildPrep(ctx, cs, cfg)
	if err != nil {
		return nil, err
	}
	return BuildFromPrep(ctx, cs, prepC, cfg)
}

// BuildFromPrep synthesizes the protocol for a caller-supplied preparation
// circuit (which must prepare |0...0>_L exactly; see prep.Verify).
func BuildFromPrep(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, cfg Config) (*Protocol, error) {
	if err := prep.Verify(cs, prepC); err != nil {
		return nil, err
	}
	exD := verify.DangerousErrors(cs, prepC, code.ErrX)
	ezD := verify.DangerousErrors(cs, prepC, code.ErrZ)
	cands, err := verifications(ctx, cs, code.ErrX, exD, cfg)
	if err != nil {
		return nil, err
	}
	return cheapest(ctx, cands, func(v1 []f2.Vec) (*Protocol, error) {
		return assemble(ctx, cs, prepC, v1, len(ezD) > 0, cfg)
	})
}

// verifications returns the candidate verifications of the errs of one
// sector (kind): a single nil candidate when errs is empty, the one optimal
// verification under VerifOptimal, and at most cfg.GlobalLimit (0 selects
// 16) optimal ones under VerifGlobal.
func verifications(ctx context.Context, cs *code.CSS, kind code.ErrType, errs []f2.Vec, cfg Config) ([][]f2.Vec, error) {
	if len(errs) == 0 {
		return [][]f2.Vec{nil}, nil
	}
	if cfg.Verif != VerifGlobal {
		res, err := verify.Synthesize(ctx, cs.DetectionGroup(kind), errs)
		if err != nil {
			return nil, err
		}
		return [][]f2.Vec{res.Stabs}, nil
	}
	limit := cfg.GlobalLimit
	if limit <= 0 {
		limit = 16
	}
	results, err := verify.EnumerateOptimal(ctx, cs.DetectionGroup(kind), errs, limit)
	if err != nil {
		return nil, err
	}
	cands := make([][]f2.Vec, len(results))
	for i, r := range results {
		cands[i] = r.Stabs
	}
	return cands, nil
}

// cheapest builds the protocol of every candidate verification and returns
// the one with the lowest average correction cost, the first on a tie. A
// done ctx ends it at once with ctx's error; any other failed candidate is
// skipped, and the first failure is returned when every candidate fails.
// One candidate, the "Opt" method's, gives its protocol or its error
// unchanged. An empty candidate list is an error.
func cheapest(ctx context.Context, cands [][]f2.Vec, build func([]f2.Vec) (*Protocol, error)) (*Protocol, error) {
	var best *Protocol
	var bestCost float64
	var firstErr error
	for _, v := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := build(v)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if cost := p.avgCorrectionCost(); best == nil || cost < bestCost {
			best, bestCost = p, cost
		}
	}
	switch {
	case best != nil:
		return best, nil
	case firstErr != nil:
		return nil, firstErr
	}
	return nil, errors.New("core: no candidate verification to build a protocol from")
}

func buildPrep(ctx context.Context, cs *code.CSS, cfg Config) (*circuit.Circuit, error) {
	if cfg.Prep == PrepOptimal {
		c, err := prep.Optimal(ctx, cs, cfg.PrepBudget)
		if err != nil {
			return nil, err
		}
		if c != nil {
			return c, nil
		}
		// Budget exhausted: fall back, mirroring the paper's use of the
		// heuristic for larger codes.
	}
	return prep.Heuristic(cs), nil
}

// assemble builds the protocol given the layer-1 verification stabilizers
// (none for a prep without dangerous X errors). wantLayer2 forces a Z layer
// when prep has dangerous Z errors; a Z layer is also created when layer-1
// hook deferral requires one. A protocol without a Z layer is corrected as
// it stands; otherwise the Z layer's candidate verifications (see
// verifications) each complete a protocol, and the cheapest is kept.
func assemble(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, verif1 []f2.Vec, wantLayer2 bool, cfg Config) (*Protocol, error) {
	// Layer 1 verifies X errors with Z-type measurements.
	layer1, err := newLayer(ctx, cs, code.ErrX, verif1, !wantLayer2, cfg)
	if err != nil {
		return nil, err
	}
	p := &Protocol{Code: cs, Prep: prepC}
	if layer1 != nil {
		p.Layers = append(p.Layers, layer1)
	}
	cl1 := classify(p)

	// The layer-2 error set: the dangerous Z errors of the faults no
	// layer-1 flag caught (a fired flag hook-corrects in layer 1).
	var e2 []f2.Vec
	seen := map[string]bool{}
	for _, ft := range cl1.faults {
		if len(ft.sig) > 0 && ft.sig[0].fAny() {
			continue
		}
		if cs.ReducedWeight(code.ErrZ, ft.ez) >= 2 && !seen[ft.ez.Key()] {
			seen[ft.ez.Key()] = true
			e2 = append(e2, ft.ez)
		}
	}
	if len(e2) == 0 {
		if err := buildCorrections(ctx, p, cl1, cfg.Memo); err != nil {
			return nil, err
		}
		return p, nil
	}

	cands, err := verifications(ctx, cs, code.ErrZ, e2, cfg)
	if err != nil {
		return nil, err
	}
	return cheapest(ctx, cands, func(v2 []f2.Vec) (*Protocol, error) {
		// Layer 2 verifies Z errors with X-type measurements. It is the
		// last layer, so its hooks must be flagged.
		layer2, err := newLayer(ctx, cs, code.ErrZ, v2, true, cfg)
		if err != nil {
			return nil, err
		}
		q := &Protocol{Code: cs, Prep: prepC}
		if layer1 != nil {
			// Each candidate attaches its corrections to its own class map.
			q.Layers = append(q.Layers, &Layer{Detects: layer1.Detects, Verif: layer1.Verif, Classes: map[string]*ClassCorrection{}})
		}
		q.Layers = append(q.Layers, layer2)
		if err := buildCorrections(ctx, q, classify(q), cfg.Memo); err != nil {
			return nil, err
		}
		return q, nil
	})
}

// newLayer builds the verification layer that detects errors of sector
// detects by measuring stabs with the opposite-type stabilizers, each in
// the CNOT order chooseOrder picks; no stabs gives no layer. A measurement
// is flagged when hooks the order cannot defuse remain and the layer is
// the last (an earlier layer defers them to the next), and, under
// cfg.FlagAll, whenever its weight is at least 3.
func newLayer(ctx context.Context, cs *code.CSS, detects code.ErrType, stabs []f2.Vec, last bool, cfg Config) (*Layer, error) {
	if len(stabs) == 0 {
		return nil, nil
	}
	l := &Layer{Detects: detects, Classes: map[string]*ClassCorrection{}}
	kind := detects.Opposite()
	for _, s := range stabs {
		order, dangerous, err := chooseOrder(ctx, cs, kind, s)
		if err != nil {
			return nil, err
		}
		l.Verif = append(l.Verif, Measurement{
			Stab:    s.Clone(),
			Kind:    kind,
			Order:   order,
			Flagged: dangerous > 0 && last || cfg.FlagAll && len(order) >= 3,
		})
	}
	return l, nil
}

// chooseOrder selects a CNOT order for measuring stab, minimizing the number
// of dangerous hook errors (suffix errors of the measurement's own type).
// It returns the order and the remaining dangerous-hook count. A weight-8
// stabilizer has 8! orders, so the search polls ctx every pollOrders
// orders it scores and returns ctx.Err() once ctx is done.
func chooseOrder(ctx context.Context, cs *code.CSS, measType code.ErrType, stab f2.Vec) ([]int, int, error) {
	sup := stab.Support()
	w := len(sup)
	var err error
	scored := 0
	dangerousCount := func(order []int) int {
		if scored++; scored%pollOrders == 0 && err == nil {
			err = ctx.Err()
		}
		cnt := 0
		suffix := f2.NewVec(cs.N)
		// Build suffixes from the back: after CNOT j (1-based), the
		// remaining qubits order[j:] carry the hook.
		for j := w - 1; j >= 1; j-- {
			suffix.Flip(order[j])
			if cs.ReducedWeight(measType, suffix) >= 2 {
				cnt++
			}
		}
		return cnt
	}
	if w <= 1 {
		return sup, 0, nil
	}
	best := append([]int(nil), sup...)
	bestCnt := dangerousCount(best)
	if bestCnt == 0 {
		return best, 0, nil
	}
	if w <= 8 {
		perm := append([]int(nil), sup...)
		var rec func(k int) bool
		rec = func(k int) bool {
			if k == w {
				if c := dangerousCount(perm); c < bestCnt {
					bestCnt = c
					copy(best, perm)
				}
				return bestCnt == 0 || err != nil
			}
			for i := k; i < w; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				if rec(k + 1) {
					return true
				}
				perm[k], perm[i] = perm[i], perm[k]
			}
			return false
		}
		rec(0)
		if err != nil {
			return nil, 0, err
		}
		return best, bestCnt, nil
	}
	// Large stabilizers: deterministic local search over adjacent swaps.
	cur := append([]int(nil), sup...)
	curCnt := dangerousCount(cur)
	improved := true
	for improved && curCnt > 0 && err == nil {
		improved = false
		for i := 0; i < w-1; i++ {
			cur[i], cur[i+1] = cur[i+1], cur[i]
			if c := dangerousCount(cur); c < curCnt {
				curCnt = c
				improved = true
			} else {
				cur[i], cur[i+1] = cur[i+1], cur[i]
			}
		}
	}
	if err != nil {
		return nil, 0, err
	}
	if curCnt < bestCnt {
		return cur, curCnt, nil
	}
	return best, bestCnt, nil
}

// pollOrders is how many CNOT orders chooseOrder scores between polls of
// its context.
const pollOrders = 256

// corrProblem is one distinct correction synthesis of a build: a sector and
// an error set, shared by every class whose primary or hook errors it is.
type corrProblem struct {
	kind code.ErrType
	errs []f2.Vec
	blk  *correct.Block
	err  error
}

// solve synthesizes the problem's block, through memo when it is non-nil,
// and re-validates the SAT model outside the solver: every class error must
// reduce to weight <= 1 under its cell's recovery.
func (p *corrProblem) solve(ctx context.Context, cs *code.CSS, memo *correct.Memo) {
	if p.err = ctx.Err(); p.err != nil {
		return
	}
	p.blk, p.err = memo.Synthesize(ctx, cs.DetectionGroup(p.kind), cs.ReductionGroup(p.kind), p.errs)
	if p.err == nil {
		p.err = correct.Check(p.blk, cs, p.kind, p.errs)
	}
}

// spare is the process-wide pool of spare-core tokens, one for each core
// beyond the one a synthesizing goroutine already runs on. solveAll starts a
// helper only for a token it takes without waiting, and the helper gives it
// back before it counts as done, so synthesis never keeps more than
// GOMAXPROCS cores busy however many builds run at once, and with
// GOMAXPROCS=1 every build solves on its caller's goroutine alone.
var spare = make(chan struct{}, max(runtime.GOMAXPROCS(0)-1, 0))

// helperDone, when non-nil, is called by each helper of solveAll after its
// work loop and before it counts as done. It is nil outside the tests,
// which park helpers in it to check that solveAll waits for them.
var helperDone func()

// solveAll solves every problem, largest error set first, on the calling
// goroutine and on a helper for each spare-core token it can take; all of
// them pull from one shared index. The first failure cancels the solves
// still running, which then fail with context.Canceled. Every helper has
// returned, and its token is back, when solveAll does.
func solveAll(ctx context.Context, cs *code.CSS, memo *correct.Memo, probs []*corrProblem) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sort.SliceStable(probs, func(i, j int) bool { return len(probs[i].errs) > len(probs[j].errs) })
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(probs)); i = next.Add(1) - 1 {
			if probs[i].solve(ctx, cs, memo); probs[i].err != nil {
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
helpers:
	for h := 1; h < len(probs); h++ {
		select {
		case spare <- struct{}{}:
		default:
			break helpers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-spare }()
			work()
			if helperDone != nil {
				helperDone()
			}
		}()
	}
	work()
	wg.Wait()
}

// buildCorrections synthesizes all correction blocks from the classified
// faults of p and attaches them to p's layers. It also asserts the
// silent-case safety condition.
//
// It first collects every layer's classes and their distinct (sector, error
// set) problems, then solves the problems (solveAll), and only then attaches
// the blocks. Each block depends on its problem alone, so the protocol is the
// same whatever order the solves finish in; a failure is reported for the
// first class in (layer, signature key) order whose solve failed.
func buildCorrections(ctx context.Context, p *Protocol, cl *classification, memo *correct.Memo) error {
	cs, layers := p.Code, p.Layers
	// Silent faults: both sectors must already be benign.
	for _, ft := range cl.faults {
		if !ft.silent() {
			continue
		}
		if cs.ReducedWeight(code.ErrX, ft.ex) >= 2 {
			return fmt.Errorf("core: silent fault leaves dangerous X error %v (verification incomplete)", ft.ex)
		}
		if cs.ReducedWeight(code.ErrZ, ft.ez) >= 2 {
			return fmt.Errorf("core: silent fault leaves dangerous Z error %v (verification incomplete)", ft.ez)
		}
	}

	type classRef struct {
		li         int
		key        string
		sig        Signature
		prim, hook *corrProblem
	}
	var classes []classRef
	byKey := map[string]*corrProblem{}
	var probs []*corrProblem
	problem := func(kind code.ErrType, errs []f2.Vec) *corrProblem {
		key := kind.String()
		for _, e := range errs {
			key += "|" + e.String()
		}
		prob, ok := byKey[key]
		if !ok {
			prob = &corrProblem{kind: kind, errs: errs}
			byKey[key] = prob
			probs = append(probs, prob)
		}
		return prob
	}
	for li, layer := range layers {
		classErrs := map[string]map[string]f2.Vec{}     // sig -> primary reps
		classHookErrs := map[string]map[string]f2.Vec{} // sig -> hook reps
		classSig := map[string]Signature{}
		for _, ft := range cl.faults {
			sig := ft.sig[li]
			include := false
			switch {
			case li == 0:
				include = !sig.zero()
			case li == 1:
				// Layer 2 runs unless a layer-1 flag fired.
				if ft.sig[0].fAny() {
					continue
				}
				include = !sig.zero()
			}
			if !include {
				continue
			}
			key := sig.signature().Key()
			if classErrs[key] == nil {
				classErrs[key] = map[string]f2.Vec{}
				classHookErrs[key] = map[string]f2.Vec{}
				classSig[key] = sig.signature()
			}
			prim, hook := ft.ex, ft.ez
			if layer.Detects == code.ErrZ {
				prim, hook = ft.ez, ft.ex
			}
			classErrs[key][prim.Key()] = prim
			if sig.fAny() {
				classHookErrs[key][hook.Key()] = hook
			}
		}
		keys := make([]string, 0, len(classErrs))
		for key := range classErrs {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ref := classRef{li: li, key: key, sig: classSig[key]}
			ref.prim = problem(layer.Detects, vecsOf(classErrs[key]))
			if hooks := vecsOf(classHookErrs[key]); len(hooks) > 0 {
				ref.hook = problem(layer.Detects.Opposite(), hooks)
			}
			classes = append(classes, ref)
		}
	}

	solveAll(ctx, cs, memo, probs)
	if err := ctx.Err(); err != nil {
		return err
	}
	// A solve cancelled because a sibling failed reports context.Canceled;
	// the sibling's own error is the one to return.
	failed := func(prob *corrProblem) bool {
		return prob != nil && prob.err != nil && !errors.Is(prob.err, context.Canceled)
	}
	for _, c := range classes {
		if failed(c.prim) {
			return fmt.Errorf("core: layer %d class %s primary: %w", c.li+1, c.key, c.prim.err)
		}
		if failed(c.hook) {
			return fmt.Errorf("core: layer %d class %s hook: %w", c.li+1, c.key, c.hook.err)
		}
	}
	for _, c := range classes {
		cc := &ClassCorrection{Sig: c.sig, Primary: c.prim.blk}
		if c.hook != nil {
			cc.Hook = c.hook.blk
		}
		layers[c.li].Classes[c.key] = cc
	}
	return nil
}

func vecsOf(m map[string]f2.Vec) []f2.Vec {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order for reproducible synthesis.
	sort.Strings(keys)
	out := make([]f2.Vec, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
