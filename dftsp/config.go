package dftsp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/prep"
)

// Synthesis method names accepted by Options.Prep and Options.Verif.
const (
	PrepHeuristic = "heu"    // column-elimination heuristic encoder
	PrepOptimal   = "opt"    // exact minimum-CNOT encoder search
	VerifOptimal  = "opt"    // one SAT-optimal verification, then corrections
	VerifGlobal   = "global" // explore all optimal verifications, keep the best
)

// Options selects a CSS code and tunes protocol synthesis. It is the single
// entry point of the public pipeline: every CLI flag set and every server
// request body maps onto this struct.
//
// Exactly one code source must be set: Code (a catalog name), SurfaceDistance
// (a rotated surface code), or Hx+Hz (a custom code given as bit-string check
// matrix rows). The zero value of every other field selects the paper's
// defaults (heuristic preparation, per-layer optimal verification).
type Options struct {
	// Code names a catalog code (see CodeNames). Relaxed spellings are
	// accepted and canonicalized: any name with the same code.Slug as a
	// catalog entry resolves to that entry ("steane" → "Steane",
	// "11-1-3" → "[[11,1,3]]"), so all spellings share one cache and store
	// key. Mutually exclusive with SurfaceDistance and Hx/Hz.
	Code string `json:"code,omitempty"`

	// SurfaceDistance requests the [[d²,1,d]] rotated surface code of this
	// odd distance d >= 3.
	SurfaceDistance int `json:"surface_distance,omitempty"`

	// Hx and Hz give a custom CSS code as rows of the X and Z parity-check
	// matrices, each row a string of '0'/'1' of equal length.
	Hx []string `json:"hx,omitempty"`
	Hz []string `json:"hz,omitempty"`

	// Prep selects the preparation-circuit synthesis: PrepHeuristic
	// (default) or PrepOptimal.
	Prep string `json:"prep,omitempty"`

	// Verif selects the verification/correction synthesis: VerifOptimal
	// (default) or VerifGlobal.
	Verif string `json:"verif,omitempty"`

	// PrepBudget bounds the optimal preparation search (states per
	// direction); 0 selects the default, which is also the maximum
	// (prep.DefaultBudget, 400000). Negative values are rejected.
	PrepBudget int `json:"prep_budget,omitempty"`

	// GlobalLimit caps the optimal verifications explored per layer by the
	// global method; 0 selects the default of 16. Negative values are
	// rejected.
	GlobalLimit int `json:"global_limit,omitempty"`

	// FlagAll forces a flag on every verification measurement of weight >= 3
	// (the always-flag ablation); it can only add overhead.
	FlagAll bool `json:"flag_all,omitempty"`
}

// DefaultOptions returns the paper's default configuration for the Steane
// code: heuristic preparation with per-layer optimal verification.
func DefaultOptions() Options {
	return Options{Code: "Steane", Prep: PrepHeuristic, Verif: VerifOptimal}
}

// catalogResolve memoizes the exact-name and canonical-slug → catalog-name
// map: normalized() resolves every request — and every cache-key
// computation — through it, and rebuilding the nine catalog codes each time
// would dominate cache hits.
var catalogResolve = sync.OnceValue(func() map[string]string {
	m := map[string]string{}
	for _, c := range code.Catalog() {
		m[c.Name] = c.Name
		m[code.Slug(c.Name)] = c.Name
	}
	return m
})

// CodeNames returns the catalog code names accepted by Options.Code, sorted.
func CodeNames() []string {
	var names []string
	for _, c := range code.Catalog() {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// CodeDescriptor identifies one catalog code without synthesizing anything.
type CodeDescriptor struct {
	Name string `json:"name"`
	N    int    `json:"n"` // physical qubits
	K    int    `json:"k"` // logical qubits
	D    int    `json:"d"` // exact code distance
}

// Codes describes the evaluation catalog in the paper's Table I order.
func Codes() []CodeDescriptor {
	var out []CodeDescriptor
	for _, c := range code.Catalog() {
		out = append(out, CodeDescriptor{Name: c.Name, N: c.N, K: c.K, D: c.Distance()})
	}
	return out
}

// normalized validates o and fills in defaults, returning the canonical form
// used for synthesis and cache keying. Every rejection wraps ErrBadOptions;
// a bad catalog name additionally wraps ErrUnknownCode.
func (o Options) normalized() (Options, error) {
	sources := 0
	if o.Code != "" {
		sources++
	}
	if o.SurfaceDistance > 0 {
		sources++
	}
	if len(o.Hx) > 0 || len(o.Hz) > 0 {
		sources++
	}
	switch {
	case sources == 0:
		o.Code = "Steane"
	case sources > 1:
		return o, badOptions("set exactly one of code, surface_distance, hx/hz")
	}
	if (len(o.Hx) > 0) != (len(o.Hz) > 0) {
		return o, badOptions("custom codes need both hx and hz")
	}
	if o.SurfaceDistance > 0 && (o.SurfaceDistance < 3 || o.SurfaceDistance%2 == 0) {
		return o, badOptions("surface distance must be odd and >= 3, got %d", o.SurfaceDistance)
	}
	if o.Code != "" {
		canonical, ok := catalogResolve()[o.Code]
		if !ok {
			canonical, ok = catalogResolve()[code.Slug(o.Code)]
		}
		if !ok {
			return o, badOptions("%w %q (available: %v)", ErrUnknownCode, o.Code, CodeNames())
		}
		o.Code = canonical
	}

	o.Prep = strings.ToLower(o.Prep)
	switch o.Prep {
	case "":
		o.Prep = PrepHeuristic
	case PrepHeuristic, PrepOptimal:
	default:
		return o, badOptions("unknown prep method %q (want %q or %q)", o.Prep, PrepHeuristic, PrepOptimal)
	}
	o.Verif = strings.ToLower(o.Verif)
	switch o.Verif {
	case "":
		o.Verif = VerifOptimal
	case VerifOptimal, VerifGlobal:
	default:
		return o, badOptions("unknown verif method %q (want %q or %q)", o.Verif, VerifOptimal, VerifGlobal)
	}
	if o.PrepBudget < 0 || o.PrepBudget > prep.DefaultBudget {
		return o, badOptions("prep_budget must be in [0, %d], got %d", prep.DefaultBudget, o.PrepBudget)
	}
	if o.GlobalLimit < 0 {
		return o, badOptions("global_limit must be >= 0, got %d", o.GlobalLimit)
	}
	return o, nil
}

// Key renders the options in canonical form as a deterministic cache key:
// two option values with equal keys synthesize byte-identical protocols.
func (o Options) Key() (string, error) {
	n, err := o.normalized()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	switch {
	case n.SurfaceDistance > 0:
		fmt.Fprintf(&sb, "surface:%d", n.SurfaceDistance)
	case len(n.Hx) > 0:
		fmt.Fprintf(&sb, "custom:%s/%s", strings.Join(n.Hx, ","), strings.Join(n.Hz, ","))
	default:
		fmt.Fprintf(&sb, "code:%s", n.Code)
	}
	fmt.Fprintf(&sb, "|prep=%s,budget=%d|verif=%s,limit=%d|flagall=%v",
		n.Prep, n.PrepBudget, n.Verif, n.GlobalLimit, n.FlagAll)
	return sb.String(), nil
}

// buildCode materializes the selected CSS code. o must be normalized.
// Malformed custom matrices (bad bit strings, anticommuting checks) are
// invalid input, not synthesis failures, so they wrap ErrBadOptions.
func (o Options) buildCode() (*code.CSS, error) {
	switch {
	case o.SurfaceDistance > 0:
		return code.RotatedSurface(o.SurfaceDistance), nil
	case len(o.Hx) > 0:
		mx, err := f2.MatFromStrings(o.Hx...)
		if err != nil {
			return nil, badOptions("hx: %w", err)
		}
		mz, err := f2.MatFromStrings(o.Hz...)
		if err != nil {
			return nil, badOptions("hz: %w", err)
		}
		cs, err := code.New("custom", mx, mz)
		if err != nil {
			return nil, badOptions("%w", err)
		}
		return cs, nil
	default:
		return code.ByName(o.Code)
	}
}

// coreConfig translates the public options into the internal synthesis
// configuration. o must be normalized.
func (o Options) coreConfig() core.Config {
	cfg := core.Config{PrepBudget: o.PrepBudget, GlobalLimit: o.GlobalLimit, FlagAll: o.FlagAll}
	if o.Prep == PrepOptimal {
		cfg.Prep = core.PrepOptimal
	}
	if o.Verif == VerifGlobal {
		cfg.Verif = core.VerifGlobal
	}
	return cfg
}
