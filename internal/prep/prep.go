// Package prep synthesizes unitary (generally non-fault-tolerant) circuits
// preparing the logical zero state |0...0>_L of a CSS code, playing the role
// of the external state-preparation synthesis of Peham et al. (Ref. [22] of
// the paper). Two methods are provided, mirroring the paper's "Heu" and
// "Opt" variants:
//
//   - Heuristic: greedy Gaussian elimination on the X-generator matrix,
//     choosing pivots that minimize the remaining matrix weight. Fast and
//     applicable to all codes.
//   - Optimal: exact minimum-CNOT-count synthesis by bidirectional
//     breadth-first search over the reachable X-stabilizer subspaces, with
//     a configurable state budget. Each subspace is stored as the packed
//     RREF of its span in a flat word arena and found again by a byte key,
//     so the search allocates only once per new state. Feasible for the
//     smaller codes, exactly where the paper reports "Opt" results.
//
// A CSS |0>_L state is fully determined by its X-stabilizer span: the
// preparation circuits have the form "|+> on a pivots, |0> elsewhere,
// followed by CNOTs", and a CNOT(c,t) acts on the X span by the column
// operation col_t += col_c.
package prep

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/pauli"
	"repro/internal/tableau"
)

// Heuristic synthesizes a preparation circuit for |0>_L of c using greedy
// Gaussian elimination: repeatedly pick the (row, pivot column) pair whose
// clearing column operations leave the smallest total matrix weight.
func Heuristic(c *code.CSS) *circuit.Circuit {
	m := c.Hx.Clone()
	n := c.N
	rx := m.Rows()

	var ops []colop
	processed := make([]bool, rx)
	usedPivot := make([]bool, n)

	// weightAfter simulates clearing row i with pivot p and returns the
	// total weight of the resulting matrix.
	weightAfter := func(i, p int) int {
		total := 0
		for r := 0; r < rx; r++ {
			row := m.Row(r)
			if r == i {
				total++ // row i becomes the unit vector e_p
				continue
			}
			w := row.Weight()
			if row.Get(p) {
				// Every q in supp(row_i)\{p} toggles row_r[q].
				for _, q := range m.Row(i).Support() {
					if q == p {
						continue
					}
					if row.Get(q) {
						w--
					} else {
						w++
					}
				}
			}
			total += w
		}
		return total
	}

	for step := 0; step < rx; step++ {
		bestI, bestP, bestW := -1, -1, int(^uint(0)>>1)
		for i := 0; i < rx; i++ {
			if processed[i] {
				continue
			}
			for _, p := range m.Row(i).Support() {
				if usedPivot[p] {
					continue
				}
				if w := weightAfter(i, p); w < bestW {
					bestI, bestP, bestW = i, p, w
				}
			}
		}
		if bestI < 0 {
			panic("prep: no pivot available (Hx not full rank?)")
		}
		// Apply the clearing column operations col_q += col_p.
		for _, q := range m.Row(bestI).Support() {
			if q == bestP {
				continue
			}
			ops = append(ops, colop{bestP, q})
			for r := 0; r < rx; r++ {
				if m.Row(r).Get(bestP) {
					m.Row(r).Flip(q)
				}
			}
		}
		processed[bestI] = true
		usedPivot[bestP] = true
	}

	// Assemble: |+> on pivots, |0> elsewhere, then the reduction ops
	// reversed as CNOT(p, q).
	circ := circuit.New(n)
	var pivots []int
	for q := 0; q < n; q++ {
		if usedPivot[q] {
			pivots = append(pivots, q)
		}
	}
	for q := 0; q < n; q++ {
		if usedPivot[q] {
			circ.AppendPrepX(q)
		} else {
			circ.AppendPrepZ(q)
		}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		circ.AppendCNOT(ops[i].p, ops[i].q)
	}
	return circ
}

// Optimal synthesizes a minimum-CNOT-count preparation circuit by
// bidirectional BFS over X-stabilizer subspaces. maxStates bounds the number
// of distinct states visited per direction; on exhaustion it returns a nil
// circuit and nil error (fall back to Heuristic). A maxStates of 0 selects a
// default budget. Cancelling ctx aborts the search with ctx.Err().
//
// The forward search starts from every unit-selection subspace (|+> on rx
// qubits, |0> elsewhere), so a code with more than maxStates such seeds is
// given up at once, before any of them is generated. The backward search
// starts from the span of Hx. A state is the RREF of its span, rx rows of
// ⌈n/64⌉ packed words, and costs rx·⌈n/64⌉·8 arena bytes, 24 bytes of
// parent, op and depth, and one map entry keyed by rx·⌈n/8⌉ bytes (see
// side): 24 + 24 bytes plus a 3-byte key for Steane. The search order is
// fixed: frontiers are expanded in discovery order, successors p-major then
// q, the smaller frontier first, and a meet replaces the best one only when
// strictly shorter. The RREF names a span uniquely and a column operation
// maps spans to spans, so this order alone fixes the states, the meet and
// the path: the circuit is the one any exact span representation yields.
func Optimal(ctx context.Context, c *code.CSS, maxStates int) (*circuit.Circuit, error) {
	circ, _, err := optimal(ctx, c, maxStates)
	return circ, err
}

// optimal is Optimal that also reports the number of distinct states
// visited in both directions.
func optimal(ctx context.Context, c *code.CSS, maxStates int) (*circuit.Circuit, int, error) {
	if maxStates == 0 {
		maxStates = 400_000
	}
	n := c.N
	rx := c.Hx.Rows()
	if rx == 0 {
		return circuit.New(n), 0, nil
	}
	fwd := newSide(n, rx)
	bwd := newSide(n, rx)

	// The target is the RREF of Hx; a rank-deficient Hx keeps zero rows at
	// the bottom, which no seed has, so the two never meet.
	for i := 0; i < rx; i++ {
		copy(bwd.cur[i*bwd.w:], c.Hx.Row(i).Words())
	}
	bwd.rref(bwd.cur)
	if circ := bwd.prefix(bwd.cur); circ != nil {
		// The target is itself a seed: it needs no CNOTs at all.
		return circ, 1, nil
	}
	bwd.add(bwd.cur, -1, -1, -1, 0)

	// Seed forward with every unit-selection subspace, in lexicographic
	// order of the selected qubits. Unit rows in ascending order are
	// already in RREF.
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if rx > n || seedsOver(n, rx, maxStates) {
		return nil, 0, nil
	}
	comb := make([]int, rx)
	for i := range comb {
		comb[i] = i
	}
	for seeds := 1; ; seeds++ {
		if seeds%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		clear(fwd.cur)
		for i, p := range comb {
			fwd.cur[i*fwd.w+p/64] = 1 << (p % 64)
		}
		fwd.add(fwd.cur, -1, -1, -1, 0)
		// Advance to the next rx-subset of {0..n-1}.
		i := rx - 1
		for i >= 0 && comb[i] == n-rx+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < rx; j++ {
			comb[j] = comb[j-1] + 1
		}
	}

	// Bidirectional level-by-level BFS. After the first meet, expansion
	// continues while a strictly shorter total is still possible, which
	// guarantees a minimum-length path. A frontier is the index range of
	// the states its level discovered.
	meetFwd, meetBwd := int32(-1), int32(-1)
	best := int(^uint(0) >> 1)
	fwdLo, fwdHi := 0, fwd.states()
	bwdLo, bwdHi := 0, bwd.states()
	fwdDepth, bwdDepth := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if fwdLo == fwdHi || bwdLo == bwdHi {
			break
		}
		if fwdDepth+bwdDepth+1 >= best {
			break // no shorter meet can appear
		}
		if fwd.states() > maxStates || bwd.states() > maxStates {
			if meetFwd < 0 {
				return nil, 0, nil
			}
			break
		}
		// Expand the smaller frontier by one level.
		this, other := fwd, bwd
		lo, hi := fwdLo, fwdHi
		depth := fwdDepth + 1
		if fwdHi-fwdLo <= bwdHi-bwdLo {
			fwdDepth++
		} else {
			this, other = bwd, fwd
			lo, hi = bwdLo, bwdHi
			depth = bwdDepth + 1
			bwdDepth++
		}
		found := func(idx int32) {
			o, hit := other.index[string(this.key)]
			if !hit {
				return
			}
			if total := depth + int(other.depth[o]); total < best {
				best = total
				if this == fwd {
					meetFwd, meetBwd = idx, o
				} else {
					meetFwd, meetBwd = o, idx
				}
			}
		}
		for s := lo; s < hi; s++ {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			// Bail out mid-level once the budget is blown; waiting for
			// the level barrier can cost minutes on larger codes.
			if this.states() > maxStates {
				if meetFwd < 0 {
					return nil, 0, nil
				}
				break
			}
			this.expand(int32(s), found)
		}
		if this == fwd {
			fwdLo, fwdHi = hi, fwd.states()
		} else {
			bwdLo, bwdHi = hi, bwd.states()
		}
	}
	states := fwd.states() + bwd.states()
	if meetFwd < 0 {
		return nil, states, nil
	}

	// Reconstruct: the forward ops from the seed to the meet in application
	// order, then the backward ops from the meet to the target in discovery
	// order reversed, which is their application order since column ops are
	// involutions.
	var fops []colop
	root := meetFwd
	for ; fwd.parent[root] >= 0; root = fwd.parent[root] {
		fops = append(fops, fwd.op[root])
	}
	slices.Reverse(fops)
	ops := fops
	for s := meetBwd; bwd.parent[s] >= 0; s = bwd.parent[s] {
		ops = append(ops, bwd.op[s])
	}
	circ := fwd.prefix(fwd.state(root))
	for _, o := range ops {
		circ.AppendCNOT(o.p, o.q)
	}
	return circ, states, nil
}

// colop is the column operation col_q += col_p, the action of CNOT(p, q).
type colop struct{ p, q int }

// side is one direction of the bidirectional search. State i is the RREF of
// its span, stored as rx rows of w = ⌈n/64⌉ packed words at
// words[i*rx*w:]: pivots ascending, zero rows (rank-deficient targets only)
// last. Its parent index, the column op that reached it and its depth sit
// at index i of the parallel slices. index maps the state's key, its rows
// as ⌈n/8⌉ little-endian bytes each, to i. A state so costs rx·w·8 arena
// bytes, 24 bytes of parallel slices, and one map entry holding its
// rx·⌈n/8⌉-byte key.
type side struct {
	n, rx, w int
	words    []uint64
	parent   []int32
	op       []colop
	depth    []int32
	index    map[string]int32
	cur, nxt []uint64 // scratch states
	key      []byte   // scratch key of nxt
}

func newSide(n, rx int) *side {
	w := (n + 63) / 64
	return &side{
		n: n, rx: rx, w: w,
		index: map[string]int32{},
		cur:   make([]uint64, rx*w),
		nxt:   make([]uint64, rx*w),
		key:   make([]byte, rx*((n+7)/8)),
	}
}

func (s *side) states() int { return len(s.parent) }

// state returns the rows of state i.
func (s *side) state(i int32) []uint64 {
	k := s.rx * s.w
	return s.words[int(i)*k : int(i+1)*k]
}

// encode writes the key of rows into s.key.
func (s *side) encode(rows []uint64) {
	rb := (s.n + 7) / 8
	for r := 0; r < s.rx; r++ {
		row := rows[r*s.w : (r+1)*s.w]
		for b := 0; b < rb; b++ {
			s.key[r*rb+b] = byte(row[b/8] >> (8 * (b % 8)))
		}
	}
}

// add stores rows (in RREF) as a new state unless it is already known, and
// reports the new index or -1.
func (s *side) add(rows []uint64, parent int32, p, q, depth int) int32 {
	s.encode(rows)
	if _, seen := s.index[string(s.key)]; seen {
		return -1
	}
	idx := int32(len(s.parent))
	s.index[string(s.key)] = idx
	s.words = append(s.words, rows...)
	s.parent = append(s.parent, parent)
	s.op = append(s.op, colop{p, q})
	s.depth = append(s.depth, int32(depth))
	return idx
}

// expand adds every unseen successor of state i under the column ops
// (p, q), p-major, and calls found with each new index while s.key still
// holds its key.
func (s *side) expand(i int32, found func(int32)) {
	copy(s.cur, s.state(i))
	depth := int(s.depth[i]) + 1
	for p := 0; p < s.n; p++ {
		pw, pb := p/64, uint64(1)<<(p%64)
		// A column that is zero on the span leaves it unchanged, and the
		// span itself is already known.
		live := false
		for r := 0; r < s.rx; r++ {
			if s.cur[r*s.w+pw]&pb != 0 {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		for q := 0; q < s.n; q++ {
			if p == q {
				continue
			}
			qw, qb := q/64, uint64(1)<<(q%64)
			copy(s.nxt, s.cur)
			for r := 0; r < s.rx; r++ {
				if s.nxt[r*s.w+pw]&pb != 0 {
					s.nxt[r*s.w+qw] ^= qb
				}
			}
			s.rref(s.nxt)
			if idx := s.add(s.nxt, i, p, q, depth); idx >= 0 {
				found(idx)
			}
		}
	}
}

// rref brings rows to reduced row echelon form in place: pivot columns
// ascending, each pivot column clear in every other row, zero rows last.
func (s *side) rref(rows []uint64) {
	w := s.w
	r := 0
	for c := 0; c < s.n && r < s.rx; c++ {
		cw, cb := c/64, uint64(1)<<(c%64)
		sel := -1
		for i := r; i < s.rx; i++ {
			if rows[i*w+cw]&cb != 0 {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		if sel != r {
			for k := 0; k < w; k++ {
				rows[r*w+k], rows[sel*w+k] = rows[sel*w+k], rows[r*w+k]
			}
		}
		for i := 0; i < s.rx; i++ {
			if i != r && rows[i*w+cw]&cb != 0 {
				for k := 0; k < w; k++ {
					rows[i*w+k] ^= rows[r*w+k]
				}
			}
		}
		r++
	}
}

// prefix returns the preparation prefix of a unit-selection state, |+> on
// the qubits its rows select and |0> elsewhere, or nil if some row does not
// select exactly one qubit. The caller appends the CNOTs.
func (s *side) prefix(rows []uint64) *circuit.Circuit {
	isPivot := make([]bool, s.n)
	for r := 0; r < s.rx; r++ {
		wt, q := 0, 0
		for k, x := range rows[r*s.w : (r+1)*s.w] {
			if x != 0 {
				wt += bits.OnesCount64(x)
				q = k*64 + bits.TrailingZeros64(x)
			}
		}
		if wt != 1 {
			return nil
		}
		isPivot[q] = true
	}
	circ := circuit.New(s.n)
	for q := 0; q < s.n; q++ {
		if isPivot[q] {
			circ.AppendPrepX(q)
		} else {
			circ.AppendPrepZ(q)
		}
	}
	return circ
}

// seedsOver reports whether C(n, k) > limit for 0 < k <= n. The partial
// products C(n-k+i, i) grow with i, so it stops at the first one above
// limit; 128-bit products keep it exact for any n.
func seedsOver(n, k, limit int) bool {
	if limit < 1 {
		return true
	}
	c := uint64(1)
	for i := uint64(1); i <= uint64(k); i++ {
		hi, lo := bits.Mul64(c, uint64(n-k)+i)
		if hi >= i {
			return true // the quotient needs more than 64 bits
		}
		if c, _ = bits.Div64(hi, lo, i); c > uint64(limit) {
			return true
		}
	}
	return false
}

// Verify checks on the exact stabilizer simulator that circ prepares
// |0...0>_L of c: every X and Z stabilizer generator and every logical Z
// must have expectation +1 on the output state.
func Verify(c *code.CSS, circ *circuit.Circuit) error {
	if circ.N != c.N {
		return fmt.Errorf("prep: circuit has %d qubits, code has %d", circ.N, c.N)
	}
	t := tableau.New(c.N)
	circ.Run(t, nil)
	for i := 0; i < c.Hx.Rows(); i++ {
		op := pauli.Pauli{X: c.Hx.Row(i).Clone(), Z: f2.NewVec(c.N)}
		if e := t.Expectation(op); e != 1 {
			return fmt.Errorf("prep: X stabilizer %d has expectation %d", i, e)
		}
	}
	for i := 0; i < c.Hz.Rows(); i++ {
		op := pauli.Pauli{X: f2.NewVec(c.N), Z: c.Hz.Row(i).Clone()}
		if e := t.Expectation(op); e != 1 {
			return fmt.Errorf("prep: Z stabilizer %d has expectation %d", i, e)
		}
	}
	for i := 0; i < c.Lz.Rows(); i++ {
		op := pauli.Pauli{X: f2.NewVec(c.N), Z: c.Lz.Row(i).Clone()}
		if e := t.Expectation(op); e != 1 {
			return fmt.Errorf("prep: logical Z %d has expectation %d", i, e)
		}
	}
	return nil
}
