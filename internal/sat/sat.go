// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in the MiniSat tradition: two-literal watches, first
// unique implication point conflict analysis with clause minimization, VSIDS
// branching with phase saving, Luby restarts and activity-based deletion of
// learned clauses.
//
// The solver is the decision oracle behind the synthesis procedures in this
// repository (verification- and correction-circuit synthesis); the instances
// it must handle are small (thousands of variables). Clauses live in one flat
// literal arena addressed by int32 references, and assignments are kept per
// literal, so the propagation loop touches no pointers; the search order —
// every watch visit, watch move, restart and deletion — is fixed by the
// instance alone, so a given formula always yields the same decisions,
// conflicts and model.
//
// The order of a clause's two watched literals is observable in three
// places only, and each reads it after the visit that fixed it: a conflict
// clause's literal order in analyze (fixed by the visit that found the
// conflict), and a reason clause's literal order in analyze and its lits[0]
// in locked (fixed by the visit that made it a reason; a reason is not
// visited again while its literal stays assigned). So a visit that finds
// the clause satisfied by its other watch leaves the clause untouched, and
// only the unit, conflict and watch-move paths order the two watches.
//
// Reset empties a solver for the next formula and keeps its storage; a
// reset solver searches exactly like a fresh one.
package sat

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Lit is a literal: variable index v (0-based) encoded as 2v for the positive
// and 2v+1 for the negated literal.
type Lit int32

// MkLit returns the literal for variable v, negated if neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal as "v3" or "~v3".
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref addresses a clause in the solver's arena: the index of its header.
//
// A clause occupies 2+size consecutive arena slots: a header
// (size<<2 | deleted<<1 | learnt), an activity counter (learned clauses are
// bumped by one per conflict they take part in), then the literals. lits[0]
// and lits[1] are the watched literals.
type cref int32

// noRef is the reason of decisions, level-0 units and unassigned variables.
const noRef cref = -1

const (
	hdrLearnt  = 1
	hdrDeleted = 2
	hdrShift   = 2
	hdrSlots   = 2 // header and activity precede the literals
)

// Solver is a CDCL SAT solver. The zero value is not usable; create solvers
// with NewSolver.
type Solver struct {
	arena   []Lit  // clause storage, see cref
	wasted  int    // arena slots held by deleted clauses
	clauses []cref // problem clauses
	learnts []cref // learned clauses
	watches [][]cref

	vals     []lbool // current assignment per literal
	phase    []bool  // saved phase per variable
	level    []int   // decision level per assigned variable
	reason   []cref
	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	varInc float64
	heap   varHeap // holds the activity per variable
	seen   []bool

	// Scratch buffers reused across calls.
	addBuf, learntBuf, analyzeBuf []Lit

	model []bool // last satisfying assignment

	unsat     bool // formula proven unsatisfiable at level 0
	conflicts int64
	decisions int64
	propags   int64

	maxConflicts int64 // 0 means no budget
	maxLearnts   int   // learned-clause budget before reduceDB; grows geometrically
}

// NewSolver returns an empty solver with no variables.
func NewSolver() *Solver {
	return &Solver{varInc: 1}
}

// Reset returns the solver to the state NewSolver gives: no variables, no
// clauses, no model, zero statistics and no conflict budget. It keeps the
// storage of every slice, the inner watch lists included, so a solver
// rebuilt after Reset allocates only past the largest formula it held, and
// its search is exactly that of a fresh solver on the same formula.
func (s *Solver) Reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	*s = Solver{
		arena:      s.arena[:0],
		clauses:    s.clauses[:0],
		learnts:    s.learnts[:0],
		watches:    s.watches[:0],
		vals:       s.vals[:0],
		phase:      s.phase[:0],
		level:      s.level[:0],
		reason:     s.reason[:0],
		trail:      s.trail[:0],
		trailLim:   s.trailLim[:0],
		varInc:     1,
		heap:       varHeap{data: s.heap.data[:0], pos: s.heap.pos[:0], activity: s.heap.activity[:0]},
		seen:       s.seen[:0],
		addBuf:     s.addBuf[:0],
		learntBuf:  s.learntBuf[:0],
		analyzeBuf: s.analyzeBuf[:0],
		model:      s.model[:0],
	}
}

// SetBudget limits the total number of conflicts across subsequent Solve
// calls; 0 removes the limit. When exhausted, Solve returns ErrBudget.
func (s *Solver) SetBudget(conflicts int64) { s.maxConflicts = conflicts }

// ErrBudget is returned by Solve when the conflict budget is exhausted
// before a definite answer was reached.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses currently stored.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noRef)
	s.heap.activity = append(s.heap.activity, 0)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2] // lists Reset emptied, storage kept
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.heap.insert(v)
	return v
}

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c cref) []Lit {
	n := int(s.arena[c] >> hdrShift)
	at := int(c) + hdrSlots
	return s.arena[at : at+n : at+n]
}

func (s *Solver) learnt(c cref) bool { return s.arena[c]&hdrLearnt != 0 }

// alloc copies lits into the arena as a new clause.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	hdr := Lit(len(lits)) << hdrShift
	if learnt {
		hdr |= hdrLearnt
	}
	s.arena = append(s.arena, hdr, 0)
	s.arena = append(s.arena, lits...)
	return c
}

// AddClause adds a clause over existing variables. Duplicate literals are
// merged and tautologies dropped. Adding the empty clause (or a unit clause
// contradicting level-0 facts) makes the formula unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	s.cancelUntil(0)
	// Sort/simplify: detect tautology and duplicates.
	out := s.addBuf[:0]
	for _, l := range lits {
		if l.Var() >= s.NumVars() || l < 0 {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.vals[l] {
		case lTrue:
			return // clause already satisfied at level 0
		case lFalse:
			continue // literal permanently false; drop it
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Neg() {
				return // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out[:0] // alloc copies the clause out of the buffer
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		s.uncheckedEnqueue(out[0], noRef)
		if s.propagate() != noRef {
			s.unsat = true
		}
	default:
		c := s.alloc(out, false)
		s.clauses = append(s.clauses, c)
		s.attach(c)
	}
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Neg()] = append(s.watches[lits[0].Neg()], c)
	s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], c)
}

// uncheckedEnqueue records l as true with the given reason clause.
func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign()
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.reason[v] = noRef
		s.heap.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// propagate performs unit propagation; it returns a conflicting clause or
// noRef if the queue drained without conflict.
//
// A visit reads the other watch as lits[0] ^ lits[1] ^ falseLit, so it needs
// the clause's size only when that watch is not true, and a clause it finds
// satisfied is kept without a write. The unit, conflict and watch-move paths
// normalize first (lits[0] the other watch, lits[1] the false one), which is
// the order analyze and locked read (see the package doc).
func (s *Solver) propagate() cref {
	arena, vals := s.arena, s.vals // neither header changes while propagating
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; look at clauses watching ~p
		s.qhead++
		s.propags++
		falseLit := p.Neg()
		ws := s.watches[p]
		j := 0 // ws[:j] are the watches kept so far
		confl := noRef
	visit:
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			at := int(c) + hdrSlots
			other := arena[at] ^ arena[at+1] ^ falseLit
			// If the other watch is true, the clause is satisfied.
			if vals[other] == lTrue {
				ws[j] = c
				j++
				continue
			}
			lits := arena[at : at+int(arena[c]>>hdrShift)]
			lits[0], lits[1] = other, falseLit
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], falseLit
					w := lits[1].Neg()
					s.watches[w] = append(s.watches[w], c)
					continue visit // watch moved; drop from this list
				}
			}
			// Clause is unit or conflicting.
			ws[j] = c
			j++
			if vals[other] == lFalse {
				confl = c
				s.qhead = len(s.trail) // flush queue
				j += copy(ws[j:], ws[i+1:])
				break
			}
			s.uncheckedEnqueue(other, c)
		}
		s.watches[p] = ws[:j]
		if confl != noRef {
			return confl
		}
	}
	return noRef
}

// analyze computes a 1UIP learned clause from the conflict and the level to
// backtrack to. The learned clause's first literal is the asserting literal.
// The returned slice is a scratch buffer, valid until the next call.
func (s *Solver) analyze(confl cref) (learnt []Lit, btLevel int) {
	learnt = append(s.learntBuf[:0], 0) // placeholder for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		// Trace reason for p (the whole conflict clause on first pass).
		start := 0
		if p != -1 {
			start = 1
		}
		if s.learnt(confl) {
			s.arena[confl+1]++ // bump clause activity
		}
		for _, q := range s.lits(confl)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to look at from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Clause minimization: drop literals implied by the rest of the clause.
	orig := append(s.analyzeBuf[:0], learnt...)
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized

	// Clear seen flags for every traced literal, including dropped ones.
	for _, q := range orig {
		s.seen[q.Var()] = false
	}
	s.analyzeBuf = orig[:0]
	s.learntBuf = learnt[:0]

	// Backtrack level: the second-highest level in the clause.
	btLevel = 0
	if len(learnt) > 1 {
		maxIdx := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxIdx].Var()] {
				maxIdx = i
			}
		}
		learnt[1], learnt[maxIdx] = learnt[maxIdx], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	return learnt, btLevel
}

// redundant reports whether literal q of the learned clause is implied by
// the remaining literals (simple, non-recursive self-subsumption check).
func (s *Solver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == noRef {
		return false
	}
	for _, l := range s.lits(r) {
		if l == q.Neg() {
			continue
		}
		if s.level[l.Var()] == 0 || s.seen[l.Var()] {
			continue
		}
		return false
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	act := s.heap.activity
	act[v] += s.varInc
	if act[v] > 1e100 {
		for i := range act {
			act[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

const varDecay = 1 / 0.95

// Solve decides satisfiability of the accumulated clauses. On a SAT answer
// the model is retained and can be read with Value. Solve may be called
// again after adding further clauses (e.g. blocking clauses).
func (s *Solver) Solve() (bool, error) {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve under a context: the CDCL search polls ctx between
// propagation/decision cycles and aborts promptly (well under a second on
// the instances of this module) when the context is cancelled or its
// deadline passes, returning ctx.Err() (matchable with errors.Is against
// context.Canceled / context.DeadlineExceeded). The solver stays usable
// after an interrupted call: clauses and learnt facts are retained and
// SolveContext may be invoked again.
func (s *Solver) SolveContext(ctx context.Context) (bool, error) {
	if s.unsat {
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.cancelUntil(0)
	if s.propagate() != noRef {
		s.unsat = true
		return false, nil
	}

	restartBase := int64(100)
	for restart := 0; ; restart++ {
		budget := restartBase * int64(luby(restart))
		res, done, err := s.search(ctx, budget)
		if err != nil {
			s.cancelUntil(0)
			return false, err
		}
		if done {
			return res, nil
		}
		if s.maxConflicts > 0 && s.conflicts >= s.maxConflicts {
			return false, ErrBudget
		}
	}
}

// ctxPollInterval is the number of propagate/decision cycles between context
// polls inside search: frequent enough that cancellation lands within
// milliseconds, rare enough that the poll never shows up in profiles.
const ctxPollInterval = 512

// search runs CDCL for at most maxConfl conflicts. done=false requests a
// restart.
func (s *Solver) search(ctx context.Context, maxConfl int64) (sat bool, done bool, err error) {
	confl := int64(0)
	for iter := 0; ; iter++ {
		if iter%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return false, false, err
			}
		}
		c := s.propagate()
		if c != noRef {
			s.conflicts++
			confl++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false, true, nil
			}
			learnt, btLevel := s.analyze(c)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noRef)
			} else {
				lc := s.alloc(learnt, true)
				s.learnts = append(s.learnts, lc)
				s.attach(lc)
				s.uncheckedEnqueue(learnt[0], lc)
			}
			s.varInc *= varDecay
			continue
		}
		if confl >= maxConfl || (s.maxConflicts > 0 && s.conflicts >= s.maxConflicts) {
			s.cancelUntil(0)
			return false, false, nil
		}
		if s.maxLearnts == 0 {
			s.maxLearnts = 4000 + len(s.clauses)
		}
		if len(s.learnts) > s.maxLearnts {
			s.reduceDB()
			s.maxLearnts += s.maxLearnts/10 + 100
		}
		// Pick a branching variable.
		v := s.pickBranchVar()
		if v < 0 {
			// All variables assigned: a model.
			s.extractModel()
			return true, true, nil
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), noRef)
	}
}

func (s *Solver) pickBranchVar() int {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

func (s *Solver) extractModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]bool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[MkLit(v, false)] == lTrue
	}
}

// Value returns the value of variable v in the last model found by Solve.
func (s *Solver) Value(v int) bool {
	if v < 0 || v >= len(s.model) {
		return false
	}
	return s.model[v]
}

// locked reports whether learned clause c is the reason of a current
// assignment. A reason clause always holds its implied literal at lits[0]
// while that literal stays assigned, so one lookup decides it.
func (s *Solver) locked(c cref) bool {
	return s.reason[s.lits(c)[0].Var()] == c
}

// reduceDB removes the less active half of the learned clauses, keeping
// binary clauses and clauses that are reasons for current assignments, then
// compacts the arena once deleted clauses fill half of it.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.arena[s.learnts[i]+1] < s.arena[s.learnts[j]+1]
	})
	removeTarget := len(s.learnts) / 2
	kept := s.learnts[:0]
	removed := 0
	for _, c := range s.learnts {
		if removed < removeTarget && len(s.lits(c)) > 2 && !s.locked(c) {
			s.detach(c)
			s.arena[c] |= hdrDeleted
			s.wasted += hdrSlots + len(s.lits(c))
			removed++
		} else {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	for _, w := range [2]Lit{lits[0].Neg(), lits[1].Neg()} {
		ws := s.watches[w]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact copies the live clauses, in arena order, into a fresh arena and
// rewrites every reference. Only addresses change: watch lists, clause
// lists and reasons keep their order, so the search is unaffected.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old)-s.wasted)
	for c := 0; c < len(old); {
		size := hdrSlots + int(old[c]>>hdrShift)
		if old[c]&hdrDeleted == 0 {
			moved := Lit(len(s.arena))
			s.arena = append(s.arena, old[c:c+size]...)
			old[c+1] = moved // forwarding address, read by the remap below
		}
		c += size
	}
	s.wasted = 0
	fwd := func(refs []cref) {
		for i, c := range refs {
			refs[i] = cref(old[c+1])
		}
	}
	fwd(s.clauses)
	fwd(s.learnts)
	for _, ws := range s.watches {
		fwd(ws)
	}
	for v, r := range s.reason {
		if r != noRef {
			s.reason[v] = cref(old[r+1])
		}
	}
}

// luby returns the i-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,...).
func luby(i int) int {
	// Find the subsequence that contains index i.
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return 1 << seq
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	data     []int
	pos      []int     // variable -> heap index, -1 if absent
	activity []float64 // per variable
}

func (h *varHeap) less(a, b int) bool {
	return h.activity[h.data[a]] > h.activity[h.data[b]]
}

func (h *varHeap) swap(a, b int) {
	h.data[a], h.data[b] = h.data[b], h.data[a]
	h.pos[h.data[a]] = a
	h.pos[h.data[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.data) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.data) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) insert(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data) - 1)
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}

func (h *varHeap) empty() bool { return len(h.data) == 0 }

func (h *varHeap) pop() int {
	v := h.data[0]
	h.swap(0, len(h.data)-1)
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.down(0)
	}
	return v
}
