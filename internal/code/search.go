package code

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/f2"
)

// SearchOptions configures the randomized CSS code search.
type SearchOptions struct {
	N        int  // physical qubits
	K        int  // logical qubits
	D        int  // required minimum distance (both dX and dZ)
	RankX    int  // rank of Hx; RankZ is determined as N-K-RankX
	SelfDual bool // require Hx = Hz (forces RankX = (N-K)/2)
	MaxTries int  // candidate budget; 0 means a large default
	Seed     int64

	// MinStabWeight, if positive, rejects codes whose stabilizer span
	// contains a non-zero element lighter than this (e.g. 2 excludes
	// decoupled qubits fixed by weight-1 stabilizers).
	MinStabWeight int
}

// Search looks for a CSS code with the requested parameters by randomized
// subspace sampling, certifying the distance exactly for every candidate.
// It returns nil if the budget is exhausted. The catalog's searched
// stand-ins came from SearchSelfDualClimb instead (see searched.go).
//
// Cancelling ctx stops the search early; like budget exhaustion, this
// returns nil (the caller distinguishes the two via ctx.Err()).
func Search(ctx context.Context, opt SearchOptions) *CSS {
	if opt.MaxTries == 0 {
		opt.MaxTries = 2_000_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// A self-dual code CSS(G, G) needs a self-orthogonal G of dimension
	// (N-K)/2.
	r := (opt.N - opt.K) / 2
	if opt.SelfDual && 2*r != opt.N-opt.K {
		return nil
	}
	ones := allOnes(opt.N)
	for try := 0; try < opt.MaxTries; try++ {
		if try%256 == 0 && ctx.Err() != nil {
			return nil
		}
		var c *CSS
		if opt.SelfDual {
			if g := randomSelfOrthogonal(rng, opt.N, r, ones); g != nil {
				c, _ = New(fmt.Sprintf("search-sd-%d", opt.N), g, g.Clone())
			}
		} else {
			c = tryCSSPair(rng, opt)
		}
		if c == nil {
			continue
		}
		if c.K != opt.K {
			continue
		}
		if opt.MinStabWeight > 0 {
			if f2.MinWeightNonZero(c.Hx) < opt.MinStabWeight ||
				f2.MinWeightNonZero(c.Hz) < opt.MinStabWeight {
				continue
			}
		}
		if c.DistanceX() >= opt.D && c.DistanceZ() >= opt.D {
			return c
		}
	}
	return nil
}

// tryCSSPair samples Hx of rank RankX and Hz as a random subspace of
// ker(Hx) with the complementary rank.
func tryCSSPair(rng *rand.Rand, opt SearchOptions) *CSS {
	rx := opt.RankX
	rz := opt.N - opt.K - rx
	if rx <= 0 || rz <= 0 {
		return nil
	}
	hx := randomFullRank(rng, opt.N, rx)
	if hx == nil {
		return nil
	}
	ker := hx.Kernel() // dimension N-rx >= rz
	hz := f2.NewMat(opt.N)
	for hz.Rows() < rz {
		v, ok := randomNonZeroCombo(rng, ker, 32)
		if !ok {
			return nil
		}
		trial := hz.Clone()
		trial.MustAppendRow(v)
		if trial.Rank() != hz.Rows()+1 {
			continue
		}
		hz = trial
	}
	c, err := New(fmt.Sprintf("search-%d-%d", opt.N, opt.K), hx, hz)
	if err != nil {
		return nil
	}
	return c
}

// randomNonZeroCombo returns a random non-zero combination of the basis rows.
func randomNonZeroCombo(rng *rand.Rand, basis *f2.Mat, tries int) (f2.Vec, bool) {
	if basis.Rows() == 0 {
		return f2.Vec{}, false
	}
	for t := 0; t < tries; t++ {
		v := f2.NewVec(basis.Cols())
		any := false
		for i := 0; i < basis.Rows(); i++ {
			if rng.Intn(2) == 1 {
				v.XorInPlace(basis.Row(i))
				any = true
			}
		}
		if any && !v.IsZero() {
			return v, true
		}
	}
	return f2.Vec{}, false
}

// randomFullRank samples an r-row full-rank matrix over n columns.
func randomFullRank(rng *rand.Rand, n, r int) *f2.Mat {
	m := f2.NewMat(n)
	for attempts := 0; m.Rows() < r; attempts++ {
		if attempts > 40*r {
			return nil
		}
		v := f2.NewVec(n)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 1 {
				v.Set(j, true)
			}
		}
		trial := m.Clone()
		trial.MustAppendRow(v)
		if trial.Rank() == m.Rows()+1 {
			m = trial
		}
	}
	return m
}

// SearchSelfDualClimb looks for a self-dual CSS code (Hx = Hz = G) with the
// requested parameters by stochastic hill climbing: the cost of a candidate
// self-orthogonal basis G is the number of words of weight < D in G^⊥ that
// are not in G (i.e. low-weight non-trivial logicals), and single-generator
// resampling moves are accepted when they do not increase the cost. Plain
// random sampling is hopeless for [[12,2,4]] because almost every 7-dim dual
// contains weight-2 or weight-3 words; the climb removes them greedily.
func SearchSelfDualClimb(ctx context.Context, opt SearchOptions) *CSS {
	if opt.MaxTries == 0 {
		opt.MaxTries = 200_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	r := (opt.N - opt.K) / 2
	if 2*r != opt.N-opt.K {
		return nil
	}
	ones := allOnes(opt.N)

	cost := func(g *f2.Mat) int {
		inG := make(map[string]bool)
		f2.SpanForEach(g, func(v f2.Vec) bool {
			inG[v.Key()] = true
			return true
		})
		bad := 0
		f2.SpanForEach(g.Kernel(), func(v f2.Vec) bool {
			if !v.IsZero() && v.Weight() < opt.D && !inG[v.Key()] {
				bad++
			}
			return true
		})
		if opt.MinStabWeight > 0 {
			f2.SpanForEach(g, func(v f2.Vec) bool {
				if !v.IsZero() && v.Weight() < opt.MinStabWeight {
					bad++
				}
				return true
			})
		}
		return bad
	}

	for tries := 0; tries < opt.MaxTries; {
		if ctx.Err() != nil {
			return nil
		}
		g := randomSelfOrthogonal(rng, opt.N, r, ones)
		if g == nil {
			tries++
			continue
		}
		cur := cost(g)
		stale := 0
		for cur > 0 && stale < 3000 && tries < opt.MaxTries {
			if tries%256 == 0 && ctx.Err() != nil {
				return nil
			}
			tries++
			i := rng.Intn(r)
			// Constraint space for the replacement row: orthogonal to
			// the other rows and even weight.
			constraints := f2.NewMat(opt.N)
			for j := 0; j < r; j++ {
				if j != i {
					constraints.MustAppendRow(g.Row(j).Clone())
				}
			}
			constraints.MustAppendRow(ones.Clone())
			v, ok := randomNonZeroCombo(rng, constraints.Kernel(), 16)
			if !ok {
				continue
			}
			trial := f2.NewMat(opt.N)
			for j := 0; j < r; j++ {
				if j == i {
					trial.MustAppendRow(v)
				} else {
					trial.MustAppendRow(g.Row(j).Clone())
				}
			}
			if trial.Rank() != r {
				continue
			}
			if c := cost(trial); c <= cur {
				if c < cur {
					stale = 0
				} else {
					stale++
				}
				g = trial
				cur = c
			} else {
				stale++
			}
		}
		if cur == 0 {
			c, err := New(fmt.Sprintf("climb-sd-%d", opt.N), g, g.Clone())
			if err == nil && c.K == opt.K && c.DistanceX() >= opt.D && c.DistanceZ() >= opt.D {
				return c
			}
		}
	}
	return nil
}

// SearchCSSClimb looks for a (generally non-self-dual) CSS code by the same
// stochastic hill climbing as SearchSelfDualClimb, over pairs (Hx, Hz) with
// Hx·Hzᵀ = 0: the cost counts low-weight words of ker(Hz) outside span(Hx)
// and of ker(Hx) outside span(Hz); moves resample one row of one matrix
// from the kernel of the other.
func SearchCSSClimb(ctx context.Context, opt SearchOptions) *CSS {
	if opt.MaxTries == 0 {
		opt.MaxTries = 200_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	rx := opt.RankX
	rz := opt.N - opt.K - rx
	if rx <= 0 || rz <= 0 {
		return nil
	}

	sideCost := func(checks, stabs *f2.Mat) int {
		inSpan := make(map[string]bool)
		f2.SpanForEach(stabs, func(v f2.Vec) bool {
			inSpan[v.Key()] = true
			return true
		})
		bad := 0
		f2.SpanForEach(checks.Kernel(), func(v f2.Vec) bool {
			if !v.IsZero() && v.Weight() < opt.D && !inSpan[v.Key()] {
				bad++
			}
			return true
		})
		return bad
	}
	cost := func(hx, hz *f2.Mat) int {
		c := sideCost(hz, hx) + sideCost(hx, hz)
		if opt.MinStabWeight > 0 {
			for _, m := range []*f2.Mat{hx, hz} {
				f2.SpanForEach(m, func(v f2.Vec) bool {
					if !v.IsZero() && v.Weight() < opt.MinStabWeight {
						c++
					}
					return true
				})
			}
		}
		return c
	}

	for tries := 0; tries < opt.MaxTries; {
		if ctx.Err() != nil {
			return nil
		}
		hx := randomFullRank(rng, opt.N, rx)
		if hx == nil {
			tries++
			continue
		}
		hz := f2.NewMat(opt.N)
		kerX := hx.Kernel()
		ok := true
		for hz.Rows() < rz {
			v, found := randomNonZeroCombo(rng, kerX, 32)
			if !found {
				ok = false
				break
			}
			trial := hz.Clone()
			trial.MustAppendRow(v)
			if trial.Rank() == hz.Rows()+1 {
				hz = trial
			}
			tries++
			if tries >= opt.MaxTries {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cur := cost(hx, hz)
		stale := 0
		for cur > 0 && stale < 4000 && tries < opt.MaxTries {
			if tries%256 == 0 && ctx.Err() != nil {
				return nil
			}
			tries++
			// Resample one row of one side from the other side's kernel.
			if rng.Intn(2) == 0 {
				if nh := resampleRow(rng, hx, hz.Kernel()); nh != nil {
					if c := cost(nh, hz); c <= cur {
						if c < cur {
							stale = 0
						} else {
							stale++
						}
						hx, cur = nh, c
						continue
					}
				}
			} else {
				if nh := resampleRow(rng, hz, hx.Kernel()); nh != nil {
					if c := cost(hx, nh); c <= cur {
						if c < cur {
							stale = 0
						} else {
							stale++
						}
						hz, cur = nh, c
						continue
					}
				}
			}
			stale++
		}
		if cur == 0 {
			c, err := New(fmt.Sprintf("climb-%d-%d", opt.N, opt.K), hx, hz)
			if err == nil && c.K == opt.K && c.DistanceX() >= opt.D && c.DistanceZ() >= opt.D {
				return c
			}
		}
	}
	return nil
}

// resampleRow returns a copy of m with one random row replaced by a random
// element of the allowed space, keeping full rank; nil if no valid move was
// sampled.
func resampleRow(rng *rand.Rand, m *f2.Mat, allowed *f2.Mat) *f2.Mat {
	i := rng.Intn(m.Rows())
	v, ok := randomNonZeroCombo(rng, allowed, 16)
	if !ok {
		return nil
	}
	nm := m.Clone()
	nm.RowSlice()[i] = v
	if nm.Rank() != m.Rows() {
		return nil
	}
	return nm
}

// allOnes returns the all-ones vector of length n: v·v = wt(v) mod 2, so
// orthogonality to it is the even-weight constraint.
func allOnes(n int) f2.Vec {
	ones := f2.NewVec(n)
	for i := 0; i < n; i++ {
		ones.Set(i, true)
	}
	return ones
}

// randomSelfOrthogonal samples an r-dimensional self-orthogonal subspace
// (all generators even weight, pairwise orthogonal), or nil on degeneracy:
// each new row is a random combination of the kernel of the rows so far
// and the all-ones vector ones.
func randomSelfOrthogonal(rng *rand.Rand, n, r int, ones f2.Vec) *f2.Mat {
	basis := f2.NewMat(n)
	for basis.Rows() < r {
		constraints := basis.Clone()
		constraints.MustAppendRow(ones.Clone())
		v, ok := randomNonZeroCombo(rng, constraints.Kernel(), 32)
		if !ok {
			return nil
		}
		trial := basis.Clone()
		trial.MustAppendRow(v)
		if trial.Rank() != basis.Rows()+1 {
			return nil
		}
		basis = trial
	}
	return basis
}

// ShortenZ removes qubit q from the code by measuring it in the Z basis:
// the new X stabilizers are the combinations avoiding q, the new Z
// stabilizers are the old ones punctured at q (Z_q itself becomes trivial).
// Logical qubits whose X operators cannot avoid q are destroyed.
func ShortenZ(c *CSS, q int) (*CSS, error) {
	hx := punctureAvoiding(c.Hx, q)
	hz := punctureAll(c.Hz, q)
	return New(fmt.Sprintf("%s-z%d", c.Name, q), hx, hz)
}

// ShortenX removes qubit q by measuring it in the X basis (dual of ShortenZ).
func ShortenX(c *CSS, q int) (*CSS, error) {
	hx := punctureAll(c.Hx, q)
	hz := punctureAvoiding(c.Hz, q)
	return New(fmt.Sprintf("%s-x%d", c.Name, q), hx, hz)
}

// punctureAvoiding returns a basis of {v in rowspan(m) : v_q = 0} with
// coordinate q removed.
func punctureAvoiding(m *f2.Mat, q int) *f2.Mat {
	red := m.Clone()
	// Gaussian-eliminate so at most one row has a 1 at q.
	var pivotRow f2.Vec
	out := f2.NewMat(m.Cols() - 1)
	for i := 0; i < red.Rows(); i++ {
		row := red.Row(i).Clone()
		if row.Get(q) {
			if pivotRow.Len() == 0 {
				pivotRow = row
				continue
			}
			row.XorInPlace(pivotRow)
		}
		out.MustAppendRow(deleteCoord(row, q))
	}
	return out
}

// punctureAll returns the row span of m with coordinate q deleted.
func punctureAll(m *f2.Mat, q int) *f2.Mat {
	out := f2.NewMat(m.Cols() - 1)
	for i := 0; i < m.Rows(); i++ {
		out.MustAppendRow(deleteCoord(m.Row(i), q))
	}
	return out
}

func deleteCoord(v f2.Vec, q int) f2.Vec {
	out := f2.NewVec(v.Len() - 1)
	for i := 0; i < v.Len(); i++ {
		if i == q {
			continue
		}
		if v.Get(i) {
			j := i
			if i > q {
				j = i - 1
			}
			out.Set(j, true)
		}
	}
	return out
}

// GaugeFix returns a new CSS code obtained from c by promoting the given
// X-logical combinations to X stabilizers and Z-logical combinations to Z
// stabilizers. Index slices select rows of c.Lx and c.Lz respectively. The
// promoted operators must mutually commute, which New verifies.
func GaugeFix(c *CSS, name string, xLogicals, zLogicals []int) (*CSS, error) {
	hx := c.Hx.Clone()
	for _, i := range xLogicals {
		hx.MustAppendRow(c.Lx.Row(i).Clone())
	}
	hz := c.Hz.Clone()
	for _, i := range zLogicals {
		hz.MustAppendRow(c.Lz.Row(i).Clone())
	}
	return New(name, hx, hz)
}
