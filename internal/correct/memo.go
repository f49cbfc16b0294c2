package correct

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"repro/internal/f2"
)

// memoCap is how many solved problems a Memo keeps; past it the oldest is
// dropped. A Table I round has 42 distinct problems, each block a few
// measurements and at most a few dozen recoveries.
const memoCap = 512

// Memo answers each correction problem it has solved before: a
// content-addressed store of the blocks Synthesize returned. Its key is
// every input the search reads (the RREF bases of det and red and the
// ordered errors), so a remembered block is the one a fresh solve
// of the same inputs returns. It keeps a private copy of each block and
// hands every caller its own clone.
//
// Only solved problems are kept: an error, a cancellation included, leaves
// nothing behind, so a later call solves a failed problem afresh. Two
// concurrent calls for one unsolved problem both solve it. Solved problems
// are dropped oldest first past a fixed count.
//
// A nil *Memo remembers nothing: its Synthesize is Synthesize.
type Memo struct {
	count func(result string)

	mu     sync.Mutex
	blocks map[string]*Block
	order  []string // keys of blocks, oldest first
}

// NewMemo returns an empty memo. count is called once per Synthesize call
// with how the call was answered: "hit" (a remembered block) or "miss" (a
// solve).
func NewMemo(count func(result string)) *Memo {
	return &Memo{count: count, blocks: map[string]*Block{}}
}

// Synthesize returns Synthesize(ctx, det, red, errs), from the memo when
// the problem was solved before.
func (m *Memo) Synthesize(ctx context.Context, det, red *f2.Mat, errs []f2.Vec) (*Block, error) {
	if m == nil {
		return Synthesize(ctx, det, red, errs)
	}
	gens, redGens := det.SpanBasis(), red.SpanBasis()
	key := memoKey(gens, redGens, errs)
	m.mu.Lock()
	blk, ok := m.blocks[key]
	m.mu.Unlock()
	if ok {
		m.count("hit")
		return blk.clone(), nil
	}
	m.count("miss")
	blk, err := synthesize(ctx, gens, redGens, errs)
	if err != nil {
		return nil, err
	}
	kept := blk.clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blocks[key]; !ok {
		m.blocks[key] = kept
		m.order = append(m.order, key)
		if len(m.order) > memoCap {
			delete(m.blocks, m.order[0])
			m.order = append(m.order[:0], m.order[1:]...)
		}
	}
	return blk, nil
}

// memoKey renders everything Synthesize reads of its inputs: the RREF
// bases gens and redGens of det and red, and the errors in order.
func memoKey(gens, redGens *f2.Mat, errs []f2.Vec) string {
	var sb strings.Builder
	for _, m := range []*f2.Mat{gens, redGens} {
		sb.WriteString("|" + strconv.Itoa(m.Cols()) + "," + strconv.Itoa(m.Rows()) + ":")
		for _, r := range m.RowSlice() {
			sb.WriteString(r.Key())
		}
	}
	sb.WriteString("|" + strconv.Itoa(len(errs)) + ":")
	for _, e := range errs {
		sb.WriteString(e.Key())
	}
	return sb.String()
}

// clone returns a deep copy of the block.
func (b *Block) clone() *Block {
	c := &Block{Stabs: make([]f2.Vec, len(b.Stabs)), Recovery: make(map[string]f2.Vec, len(b.Recovery))}
	for i, s := range b.Stabs {
		c.Stabs[i] = s.Clone()
	}
	for k, r := range b.Recovery {
		c.Recovery[k] = r.Clone()
	}
	return c
}
