package dftsp

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/store"
)

// AttachStore layers a persistent protocol store under the service's
// in-memory cache, opening (and creating if necessary) the directory dir.
// Once attached, lookups go memory → disk → SAT solve and every successful
// synthesis is written back to disk, so protocols survive process restarts:
// a restarted service serves a previously synthesized protocol from a disk
// read instead of re-running the solver.
//
// Attach the store before serving requests; the store cannot be swapped or
// detached later. Store read misses fall through to synthesis and write
// failures never fail a request — both are only reflected in Stats
// (DiskMisses, StoreWriteFailures), because persistence is an optimization,
// not a correctness requirement.
func (s *Service) AttachStore(dir string) error {
	return s.AttachStoreTiers(dir)
}

// AttachStoreTiers layers the service over a writable overlay store (opened
// and created at writableDir, or absent when writableDir is "") stacked on
// any number of read-only catalogs, probed in the given order. With no
// read-only tiers this is AttachStore; with tiers, reads fall through
// overlay → catalogs → SAT solve while writes only ever land in the
// overlay. A service attached to read-only tiers alone serves its catalogs
// with zero store writes: synthesis write-backs are skipped, not failed.
//
// The catalog's read/write/corrupt counters are registered on the
// service's telemetry registry, labeled by tier.
func (s *Service) AttachStoreTiers(writableDir string, roDirs ...string) error {
	var overlay *store.Store
	if writableDir != "" {
		var err error
		if overlay, err = store.Open(writableDir); err != nil {
			return err
		}
	}
	var tiers []*store.Store
	for _, dir := range roDirs {
		t, err := store.OpenReadOnly(dir)
		if err != nil {
			return err
		}
		tiers = append(tiers, t)
	}

	st, err := store.NewTiered(overlay, tiers...)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.store != nil {
		dir := s.store.Dir()
		s.mu.Unlock()
		return fmt.Errorf("dftsp: service already has a store attached (%s)", dir)
	}
	s.store = st
	s.mu.Unlock()
	st.Instrument(s.reg)
	return nil
}

// StoreDir returns the directory of the attached store, or "" when the
// service is memory-only.
func (s *Service) StoreDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return ""
	}
	return s.store.Dir()
}

// WarmStart preloads every readable protocol of the attached store into the
// in-memory cache, so the first request for a known code is a plain memory
// hit instead of even a disk read. It returns the number of protocols
// loaded and the number of entries skipped (corrupt or version-mismatched
// files, entries whose recorded options no longer produce the recorded key —
// e.g. files written by a build with a different canonical-key scheme).
// Skipped entries are left on disk untouched; a later request for the same
// options resynthesizes and overwrites them.
//
// WarmStart is intended for boot, but is safe to call concurrently with
// requests: protocols already cached (or mid-synthesis) are never replaced.
// Cancelling ctx stops the preload between entries.
func (s *Service) WarmStart(ctx context.Context) (loaded, skipped int, err error) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return 0, 0, fmt.Errorf("dftsp: no store attached")
	}
	entries, err := st.List()
	if err != nil {
		return 0, 0, err
	}
	for _, entry := range entries {
		if err := ctx.Err(); err != nil {
			return loaded, skipped, err
		}
		p, ok := s.loadStored(st, entry.Key)
		if !ok {
			skipped++
			continue
		}
		e := &cacheEntry{ready: make(chan struct{}), p: p, fromDisk: true}
		close(e.ready)
		s.mu.Lock()
		if _, exists := s.entries[entry.Key]; exists {
			s.mu.Unlock()
			continue // a request beat us to it; keep its entry
		}
		s.entries[entry.Key] = e
		s.mu.Unlock()
		s.preloaded.Inc()
		loaded++
	}
	return loaded, skipped, nil
}

// loadStored reads one store entry and reconstructs the public Protocol,
// validating that the recorded options still canonicalize to the entry's
// key. It reports ok = false for any unusable entry.
func (s *Service) loadStored(st *store.Tiered, key string) (*Protocol, bool) {
	cp, meta, err := st.Get(key)
	if err != nil {
		return nil, false
	}
	var opts Options
	if len(meta.Options) > 0 {
		if err := json.Unmarshal(meta.Options, &opts); err != nil {
			return nil, false
		}
	}
	n, err := opts.normalized()
	if err != nil {
		return nil, false
	}
	// The recorded options must still address this entry: a key-scheme or
	// normalization change between builds silently invalidates old entries
	// instead of serving a protocol under the wrong key.
	if k, err := n.Key(); err != nil || k != key {
		return nil, false
	}
	return &Protocol{Core: cp, Options: n}, true
}

// fillFromStore attempts to serve an in-flight cache entry from the store.
// It returns true when the entry was published from disk.
func (s *Service) fillFromStore(st *store.Tiered, key string, e *cacheEntry) bool {
	p, ok := s.loadStored(st, key)
	if !ok {
		s.diskMisses.Inc()
		return false
	}
	s.diskHits.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	e.p, e.fromDisk = p, true
	close(e.ready)
	return true
}

// storeMeta is the metadata p is stored under key with: the key and p's
// options.
func storeMeta(key string, p *Protocol) (store.Meta, error) {
	optsJSON, err := json.Marshal(p.Options)
	return store.Meta{Key: key, Options: optsJSON}, err
}

// writeBack persists a freshly synthesized protocol, counting the outcome.
func (s *Service) writeBack(st *store.Tiered, key string, p *Protocol) {
	meta, err := storeMeta(key, p)
	if err == nil {
		err = st.Put(meta, p.Core)
	}
	if err != nil {
		s.writeFailures.Inc()
	} else {
		s.storeWrites.Inc()
	}
}

// ProtocolInfo identifies one protocol known to a service, in memory, on
// disk, or both — one row of the server's GET /protocols listing.
type ProtocolInfo struct {
	// Key is the canonical options key the protocol is cached and stored
	// under.
	Key string `json:"key"`

	// Code is the code name; Params its [[n,k,d]] string.
	Code   string `json:"code"`
	Params string `json:"params"`

	// InMemory reports a completed in-memory cache entry; OnDisk a store
	// entry. A warm-started protocol is both.
	InMemory bool `json:"in_memory"`
	OnDisk   bool `json:"on_disk"`
}

// Protocols lists every protocol the service can serve without synthesis:
// completed in-memory cache entries merged with the attached store's
// entries (when a store is attached), sorted by key. In-flight syntheses
// are not listed.
func (s *Service) Protocols() ([]ProtocolInfo, error) {
	// Snapshot the completed protocols under the lock, render them after:
	// Params() computes the code distance on first use, which is too heavy
	// to run while holding the service mutex.
	s.mu.Lock()
	st := s.store
	cached := map[string]*Protocol{}
	for key, e := range s.entries {
		select {
		case <-e.ready:
		default:
			continue // still synthesizing
		}
		if e.err == nil && e.p != nil {
			cached[key] = e.p
		}
	}
	s.mu.Unlock()

	infos := map[string]*ProtocolInfo{}
	for key, p := range cached {
		infos[key] = &ProtocolInfo{
			Key:      key,
			Code:     p.CodeName(),
			Params:   p.CodeParams(),
			InMemory: true,
		}
	}

	if st != nil {
		entries, err := st.List()
		if err != nil {
			return nil, err
		}
		for _, entry := range entries {
			if info, ok := infos[entry.Key]; ok {
				info.OnDisk = true
				continue
			}
			infos[entry.Key] = &ProtocolInfo{
				Key:    entry.Key,
				Code:   entry.Code,
				Params: entry.Params,
				OnDisk: true,
			}
		}
	}

	out := make([]ProtocolInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
