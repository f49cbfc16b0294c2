package dftsp

import (
	"context"
	"fmt"

	"repro/internal/code"
	"repro/internal/f2"
)

// Code-search strategies accepted by SearchOptions.Mode.
const (
	SearchRandom           = "random"            // randomized subspace sampling
	SearchClimb            = "climb"             // hill-climbing refinement
	SearchGaugeTesseract   = "gauge-tesseract"   // gauge fixings of the [[16,6,4]] tesseract code
	SearchShortenTesseract = "shorten-tesseract" // shortenings of the tesseract code
)

// SearchOptions configures CSS code discovery with prescribed [[n,k,d]]
// parameters. Every candidate's distance is certified exactly.
type SearchOptions struct {
	N int `json:"n"` // physical qubits
	K int `json:"k"` // logical qubits
	D int `json:"d"` // required minimum distance (both dX and dZ)

	// RankX is the rank of Hx. A non-self-dual random or climb search
	// needs 1 <= RankX < N-K; the rank of Hz is N-K-RankX.
	RankX int `json:"rank_x,omitempty"`

	// SelfDual requires Hx = Hz (weakly self-dual codes), so N-K must be
	// even.
	SelfDual bool `json:"self_dual,omitempty"`

	// Mode selects the strategy: SearchRandom (default), SearchClimb,
	// SearchGaugeTesseract or SearchShortenTesseract.
	Mode string `json:"mode,omitempty"`

	// MaxTries is the candidate budget; 0 selects a strategy default.
	MaxTries int `json:"max_tries,omitempty"`

	// Seed seeds the randomized strategies.
	Seed int64 `json:"seed,omitempty"`

	// MinStabWeight, if positive, rejects codes whose stabilizer span
	// contains a non-zero element lighter than this.
	MinStabWeight int `json:"min_stab_weight,omitempty"`
}

// FoundCode reports a discovered code. Its Hx/Hz rows plug directly into
// Options.Hx/Options.Hz, so a found code can be synthesized immediately.
type FoundCode struct {
	Params string   `json:"params"` // [[n,k,d]] of the found code
	DX     int      `json:"dx"`     // certified X distance
	DZ     int      `json:"dz"`     // certified Z distance
	Hx     []string `json:"hx"`     // X check matrix rows as bit strings
	Hz     []string `json:"hz"`     // Z check matrix rows as bit strings
}

// Search discovers a CSS code with the prescribed parameters using the
// selected strategy, certifying the distance exactly. It returns an
// ErrSynthesis-wrapped error when the budget is exhausted without a hit, an
// ErrBadOptions-wrapped error for options no search can meet (see
// validate), and ctx.Err() (wrapped) when the context is cancelled
// mid-search.
func Search(ctx context.Context, o SearchOptions) (*FoundCode, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	opt := code.SearchOptions{
		N: o.N, K: o.K, D: o.D, RankX: o.RankX, SelfDual: o.SelfDual,
		MaxTries: o.MaxTries, Seed: o.Seed, MinStabWeight: o.MinStabWeight,
	}
	var c *code.CSS
	switch o.Mode {
	case "", SearchRandom:
		c = code.Search(ctx, opt)
	case SearchClimb:
		if o.SelfDual {
			c = code.SearchSelfDualClimb(ctx, opt)
		} else {
			c = code.SearchCSSClimb(ctx, opt)
		}
	case SearchGaugeTesseract:
		c = code.GaugeFixTesseract(o.Seed, o.D)
	case SearchShortenTesseract:
		c = code.ShortenTesseract(o.N, o.K, o.D)
	}
	if c == nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dftsp: search interrupted: %w", err)
		}
		return nil, fmt.Errorf("%w: no [[%d,%d,%d]] code found within budget", ErrSynthesis, o.N, o.K, o.D)
	}
	fc := &FoundCode{Params: c.Params(), DX: c.DistanceX(), DZ: c.DistanceZ()}
	for i := 0; i < c.Hx.Rows(); i++ {
		fc.Hx = append(fc.Hx, c.Hx.Row(i).String())
	}
	for i := 0; i < c.Hz.Rows(); i++ {
		fc.Hz = append(fc.Hz, c.Hz.Row(i).String())
	}
	return fc, nil
}

// validate rejects, before a candidate is drawn, an option set the chosen
// strategy could never meet, or whose distance or climb-cost enumeration
// would pass f2's 2^MaxSpanRows bound. Random sampling enumerates 2^K
// logical classes and the spans of Hx and Hz; a climb also the kernels of
// the checks, of dimension K plus the other side's rank.
func (o SearchOptions) validate() error {
	if o.N < 1 || o.K < 1 || o.K >= o.N || o.D < 1 || o.MaxTries < 0 {
		return badOptions("search needs n >= 1, 1 <= k < n, d >= 1 and max_tries >= 0, got n = %d, k = %d, d = %d, max_tries = %d", o.N, o.K, o.D, o.MaxTries)
	}
	switch o.Mode {
	case "", SearchRandom, SearchClimb:
	case SearchGaugeTesseract:
		if o.N != 16 || o.K != 2 {
			return badOptions("gauge fixings of the 16-qubit tesseract code are [[16,2,d]] codes: need n = 16 and k = 2, got n = %d, k = %d", o.N, o.K)
		}
		return nil
	case SearchShortenTesseract:
		if o.N > 16 {
			return badOptions("shortenings of the 16-qubit tesseract code need n <= 16, got %d", o.N)
		}
		return nil
	default:
		return badOptions("unknown search mode %q", o.Mode)
	}
	checks, rx := o.N-o.K, o.RankX
	if o.SelfDual {
		if checks%2 != 0 {
			return badOptions("a self-dual search needs even n-k, got %d", checks)
		}
		rx = checks / 2
	} else if rx < 1 || rx >= checks {
		return badOptions("a non-self-dual search needs rank_x in [1, n-k) = [1, %d), got %d", checks, rx)
	}
	exp := max(o.K, rx, checks-rx)
	if o.Mode == SearchClimb {
		exp = o.K + max(rx, checks-rx)
	}
	if exp > f2.MaxSpanRows {
		return badOptions("this search enumerates 2^%d elements, past the bound of 2^%d", exp, f2.MaxSpanRows)
	}
	return nil
}
