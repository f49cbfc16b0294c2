package dftsp

import (
	"sort"
	"strconv"
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
// entry point of the public pipeline: every server request body decodes
// into it, and every command binds its synthesis-method fields through
// RegisterFlags, each flag named after the field's JSON name with '_'
// replaced by '-'. The code source stays with each command.
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
	// odd distance d, from 3 to maxSurfaceDistance (5).
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

// catalogResolve memoizes the exact-name and canonical-slug → catalog entry
// map: normalized() resolves every request — and every cache-key
// computation — through it.
var catalogResolve = sync.OnceValue(func() map[string]code.Entry {
	m := map[string]code.Entry{}
	for _, e := range code.Entries() {
		m[e.Name] = e
		m[code.Slug(e.Name)] = e
	}
	return m
})

// resolveCode returns the catalog entry that name spells, exactly or with
// the same code.Slug, or an ErrUnknownCode error listing the catalog.
func resolveCode(name string) (code.Entry, error) {
	e, ok := catalogResolve()[name]
	if !ok {
		e, ok = catalogResolve()[code.Slug(name)]
	}
	if !ok {
		return e, badOptions("%w %q (available: %v)", ErrUnknownCode, name, CodeNames())
	}
	return e, nil
}

// CodeNames returns the catalog code names accepted by Options.Code, sorted.
func CodeNames() []string {
	var names []string
	for _, e := range code.Entries() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// CodeDescriptor identifies one catalog code without synthesizing anything.
type CodeDescriptor = code.Entry

// Codes describes the catalog codes of a command's comma-separated -codes
// list, in the order given, each name resolved as Options.Code is; an empty
// list selects the whole catalog in the paper's Table I order. An unknown
// name wraps ErrUnknownCode and lists the available names. Nothing is
// synthesized.
func Codes(list string) ([]CodeDescriptor, error) {
	if list == "" {
		return code.Entries(), nil
	}
	var out []CodeDescriptor
	for _, name := range strings.Split(list, ",") {
		e, err := resolveCode(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// maxSurfaceDistance is the largest SurfaceDistance accepted. Measured on a
// 2-vCPU VM, the d = 5 code synthesizes in about 30 s, while synthesis of
// the d = 7 code cannot finish: its verification stage enumerates a coset
// space past f2's 2^24-element bound and fails after about 13 s of work
// that polls no context. Every larger distance costs more still, with code
// construction alone growing about as d^5.5 (0.12 s and 32 MB at d = 21).
const maxSurfaceDistance = 5

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
	if o.SurfaceDistance > 0 && (o.SurfaceDistance < 3 || o.SurfaceDistance%2 == 0 || o.SurfaceDistance > maxSurfaceDistance) {
		return o, badOptions("surface distance must be odd, >= 3 and <= %d, got %d", maxSurfaceDistance, o.SurfaceDistance)
	}
	if o.Code != "" {
		e, err := resolveCode(o.Code)
		if err != nil {
			return o, err
		}
		o.Code = e.Name
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
	b := make([]byte, 0, 64)
	switch {
	case n.SurfaceDistance > 0:
		b = strconv.AppendInt(append(b, "surface:"...), int64(n.SurfaceDistance), 10)
	case len(n.Hx) > 0:
		b = append(b, "custom:"...)
		b = appendJoined(b, n.Hx)
		b = append(b, '/')
		b = appendJoined(b, n.Hz)
	default:
		b = append(append(b, "code:"...), n.Code...)
	}
	b = append(append(b, "|prep="...), n.Prep...)
	b = strconv.AppendInt(append(b, ",budget="...), int64(n.PrepBudget), 10)
	b = append(append(b, "|verif="...), n.Verif...)
	b = strconv.AppendInt(append(b, ",limit="...), int64(n.GlobalLimit), 10)
	b = strconv.AppendBool(append(b, "|flagall="...), n.FlagAll)
	return string(b), nil
}

// appendJoined appends rows to b separated by commas.
func appendJoined(b []byte, rows []string) []byte {
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r...)
	}
	return b
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

// checkSpans rejects a code with a group that synthesis or Params would
// enumerate element by element and f2 refuses to (more than f2.MaxSpanRows
// independent generators): the stabilizer groups of |0...0>_L, which are
// the detection and reduction groups of both sectors. The Z stabilizer
// group holds the k logical Zs, so it bounds the 2^k logical classes too.
// The groups of a CSS code are independent by construction.
func checkSpans(cs *code.CSS) error {
	for _, g := range []struct {
		name string
		m    *f2.Mat
	}{
		{"X stabilizer group", cs.XStabilizerGroup()},
		{"Z stabilizer group (Z checks and logical Zs)", cs.ZStabilizerGroup()},
	} {
		if r := g.m.Rows(); r > f2.MaxSpanRows {
			return badOptions("the code's %s has %d generators; synthesis enumerates at most 2^%d elements", g.name, r, f2.MaxSpanRows)
		}
	}
	return nil
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
