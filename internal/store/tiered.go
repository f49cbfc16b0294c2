package store

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// storeMetrics holds one store's telemetry counters; the zero value (all
// nil) counts into the void, so instrumentation is strictly optional.
type storeMetrics struct {
	reads   *telemetry.Counter
	writes  *telemetry.Counter
	corrupt *telemetry.Counter
}

// Instrument registers the store's read/write/corrupt counters on reg,
// labeled by tier ("rw" for writable stores, "ro" for read-only catalogs).
// The series are created at zero immediately so every tier shows up in the
// exposition even before its first operation.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reads := reg.CounterVec("dftsp_store_reads_total",
		"Protocol files successfully read and decoded from a store tier.", "tier")
	writes := reg.CounterVec("dftsp_store_writes_total",
		"Protocol files written to a store tier.", "tier")
	corrupt := reg.CounterVec("dftsp_store_corrupt_total",
		"Store reads that failed with a corrupt or version-mismatched file.", "tier")
	s.metrics = storeMetrics{
		reads:   reads.With(s.tier()),
		writes:  writes.With(s.tier()),
		corrupt: corrupt.With(s.tier()),
	}
}

// Tiered layers an optional writable overlay store over any number of
// read-only catalog stores. Reads probe the overlay first, then each tier
// in order; writes go to the overlay (or fail with ErrReadOnly when there
// is none); listings merge all layers with upper layers shadowing lower
// ones. This is how a serving replica mounts a huge pre-warmed catalog —
// possibly several, e.g. a per-release build artifact plus a shared base —
// without owning it: the catalogs stay immutable and contention-free while
// fresh syntheses (if any) land in the replica's private overlay.
type Tiered struct {
	overlay *Store   // nil for a fully read-only stack
	layers  []*Store // probe order: the overlay, if any, then the tiers
}

// NewTiered builds a layered catalog from a writable overlay (may be nil)
// and read-only tiers in probe order. At least one layer is required.
func NewTiered(overlay *Store, tiers ...*Store) (*Tiered, error) {
	if overlay == nil && len(tiers) == 0 {
		return nil, fmt.Errorf("store: tiered catalog needs at least one layer")
	}
	if overlay != nil && overlay.ReadOnly() {
		return nil, fmt.Errorf("store: tiered overlay %s is read-only", overlay.Dir())
	}
	for _, t := range tiers {
		if t == nil {
			return nil, fmt.Errorf("store: nil tier in catalog")
		}
	}
	layers := tiers
	if overlay != nil {
		layers = append([]*Store{overlay}, tiers...)
	}
	return &Tiered{overlay: overlay, layers: layers}, nil
}

// Get probes the overlay, then each read-only tier in order. A tier that
// does not have the key — or whose copy is corrupt, which must not mask a
// healthy copy lower in the stack — falls through to the next. When no
// layer can serve the key, the first non-NotFound error (if any) is
// returned so corruption stays observable; otherwise ErrNotFound.
func (t *Tiered) Get(key string) (*core.Protocol, Meta, error) {
	var firstErr error
	for _, s := range t.layers {
		p, meta, err := s.Get(key)
		if err == nil {
			return p, meta, nil
		}
		if !errors.Is(err, ErrNotFound) && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, Meta{}, firstErr
	}
	return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// Put writes to the overlay, or fails with ErrReadOnly when the stack has
// none.
func (t *Tiered) Put(meta Meta, p *core.Protocol) error {
	if t.overlay == nil {
		return fmt.Errorf("%w: no writable overlay", ErrReadOnly)
	}
	return t.overlay.Put(meta, p)
}

// List merges the listings of every layer, sorted by key, with the overlay
// shadowing the tiers and earlier tiers shadowing later ones — the same
// precedence Get uses, so the listing names exactly the entry a Get would
// serve.
func (t *Tiered) List() ([]Entry, error) {
	seen := map[string]Entry{}
	var order []string
	for _, s := range t.layers {
		entries, err := s.List()
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if _, ok := seen[e.Key]; ok {
				continue
			}
			seen[e.Key] = e
			order = append(order, e.Key)
		}
	}
	sort.Strings(order)
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		out = append(out, seen[k])
	}
	return out, nil
}

// Dir returns the overlay directory when the stack is writable, else the
// first tier's — a single representative path for logs and /stats.
func (t *Tiered) Dir() string { return t.layers[0].Dir() }

// ReadOnly reports whether the stack has no writable overlay.
func (t *Tiered) ReadOnly() bool { return t.overlay == nil }

// Instrument registers every layer's counters on reg.
func (t *Tiered) Instrument(reg *telemetry.Registry) {
	for _, s := range t.layers {
		s.Instrument(reg)
	}
}
