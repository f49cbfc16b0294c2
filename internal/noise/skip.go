package noise

import (
	"math"
	"sync"
)

// skipBits is the guide-table resolution: a skipTable has one bucket per
// value of the top skipBits bits of the RNG output a geometric draw reads.
const skipBits = 12

// skipMiss flags a bucket whose draws fall back to the float expression;
// the word's other bits hold a lower bound of the bucket's gaps.
const skipMiss = uint32(1) << 31

// skipTable is the guide table behind geomSkip for one chain rate p. The
// geometric gap of an RNG output x, floor(log(u)/log(1-p)) with
// u = (x>>11+1)/2^53, is a non-increasing step function of x that is flat
// across most of x's range. Bucket b covers every x whose top skipBits bits
// are b; it stores its gap only when the float expression at both ends of
// the bucket lands in one integer cell, at least g·1e-12 + 1e-12 away from
// either edge of that cell. math.Log is within 1 ulp, so no value between
// the two ends can then cross an edge, and the stored gap equals the
// expression for every x in the bucket. Every other bucket falls back: its
// word is skipMiss plus a lower bound of its gaps, floor of the highest
// output's value less the same margin, and its draws evaluate the
// expression itself, so a table draw is bit-identical to the plain
// expression by construction. The lower bound lets a caller that only
// needs to know whether a gap passes some reach answer without the
// logarithm (condLaw.at).
//
// A skipTable is read-only after newSkipTable and safe for concurrent use.
type skipTable struct {
	invLog float64 // 1/log(1-p); 0 for p <= 0
	gap    [1 << skipBits]uint32
}

// newSkipTable builds the guide table for a Bernoulli(p) chain, p in
// [0, 1). A zero rate gets an all-fallback table with invLog 0, which
// reproduces the expression there too.
func newSkipTable(p float64) *skipTable {
	t := &skipTable{}
	if p > 0 {
		t.invLog = 1 / math.Log1p(-p)
	}
	for b := range t.gap {
		lo := uint64(b) << (64 - skipBits)
		hi := lo | (1<<(64-skipBits) - 1)
		// g is non-increasing in x: the largest gap sits at the bucket's
		// lowest output, the smallest at its highest.
		gHi, gLo := t.float(lo), t.float(hi)
		c := math.Floor(gLo)
		margin := c*1e-12 + 1e-12
		if c < float64(skipMiss) && gLo-c >= margin && c+1-gHi >= margin {
			t.gap[b] = uint32(c)
			continue
		}
		t.gap[b] = skipMiss
		if lb := math.Floor(gLo - margin); lb > 0 { // false for NaN
			t.gap[b] |= uint32(min(lb, float64(skipMiss-1)))
		}
	}
	return t
}

// float is the unrounded gap of RNG output x: log(u)·invLog.
func (t *skipTable) float(x uint64) float64 {
	return math.Log(float64(x>>11+1)/(1<<53)) * t.invLog
}

// expr is the reference geometric gap of RNG output x, saturating at
// maxSkip: the value every table bucket reproduces.
func (t *skipTable) expr(x uint64) uint64 {
	g := t.float(x) // >= 0; u is in (0, 1]
	if g >= maxSkip {
		return maxSkip
	}
	return uint64(g)
}

// Skips caches skip tables by chain rate, so every sampler built over one
// long-lived owner — sim.Estimator keeps one — shares a table per rate
// instead of building its own. Per-class chains with equal rates share
// one table. The zero value is ready; a nil *Skips builds a private table
// on every request. A Skips is safe for concurrent use, and the tables it
// returns are read-only.
type Skips struct {
	mu   sync.Mutex
	tabs map[float64]*skipTable
}

// maxSkipTables bounds a Skips cache (16 KB per table): past it the cache
// starts over, so a caller that sweeps many distinct rates through one
// owner cannot grow it without limit.
const maxSkipTables = 32

// table returns the skip table for chain rate p, building and caching it
// on first use.
func (s *Skips) table(p float64) *skipTable {
	if s == nil {
		return newSkipTable(p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tabs[p]; t != nil {
		return t
	}
	if s.tabs == nil || len(s.tabs) >= maxSkipTables {
		s.tabs = make(map[float64]*skipTable)
	}
	t := newSkipTable(p)
	s.tabs[p] = t
	return t
}

// maxSkip caps geomSkip far past any cell or location a chain can reach, so
// the float-to-integer conversion never overflows.
const maxSkip = math.MaxUint64 / 2

// geomSkip is the one geometric draw behind every fault chain in this
// package, skip-sampling and conditional alike: the number of fault-free
// locations before the next fault of a Bernoulli(p) chain,
// floor(log(u)/log(1-p)) for u uniform in (0, 1], read through t's guide
// table. It consumes exactly one RNG output and saturates at maxSkip.
func geomSkip(rng *SplitMix64, t *skipTable) uint64 { return t.draw(rng.Next()) }

// draw is the gap of RNG output x: its bucket's stored gap, or the
// expression when the bucket falls back.
func (t *skipTable) draw(x uint64) uint64 {
	if g := t.gap[x>>(64-skipBits)]; g&skipMiss == 0 {
		return uint64(g)
	}
	return t.expr(x)
}
