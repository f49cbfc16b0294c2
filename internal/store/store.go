// Package store persists synthesized protocols on disk, so a server restart
// never re-pays the SAT synthesis cost for a protocol it has already built.
//
// The store is a flat directory of self-describing files, content-addressed
// by the canonical options key of the protocol (the same string the
// in-memory cache of dftsp.Service is keyed by): the file name is derived
// from the SHA-256 of the key, and each file carries a one-line JSON header
// (format tag, schema version, key, code identification, payload checksum)
// followed by a canonical JSON payload. Encoding is deterministic, writes
// are atomic (temp file + rename), and every way a file can be wrong maps
// onto a typed error: ErrNotFound, ErrCorrupt or ErrVersion.
//
// The full file format, the key derivation and the version-compatibility
// policy are specified in docs/protocol-format.md.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// Typed failure modes of the store. Get wraps exactly one of these (or an
// I/O error) so callers can decide between "synthesize and overwrite"
// (ErrNotFound, ErrCorrupt) and "files come from an incompatible build"
// (ErrVersion).
var (
	// ErrNotFound reports that no entry exists for the requested key.
	ErrNotFound = errors.New("store: protocol not found")

	// ErrCorrupt reports an unreadable entry: truncated file, checksum
	// mismatch, malformed header or payload.
	ErrCorrupt = errors.New("store: corrupt protocol file")

	// ErrVersion reports an entry written with an incompatible schema
	// version.
	ErrVersion = errors.New("store: unsupported schema version")

	// ErrReadOnly reports a write attempted against a read-only catalog
	// (a store opened with OpenReadOnly, or a Tiered with no overlay).
	ErrReadOnly = errors.New("store: catalog is read-only")
)

// fileExt is the extension of every store entry; everything else in the
// directory is ignored, so operators can keep a README next to the entries.
const fileExt = ".dfp"

// Meta is the metadata stored alongside a protocol. The store treats
// Options as opaque bytes; dftsp uses it to reconstruct the request that
// produced the protocol when warm-starting a service.
type Meta struct {
	Key     string          // canonical options key the entry is addressed by
	Code    string          // code name, for listings
	Params  string          // [[n,k,d]] string, for listings
	Options json.RawMessage // normalized dftsp.Options, opaque to the store
}

// Entry describes one stored protocol without decoding its payload.
type Entry struct {
	Meta
	Path string // absolute path of the backing file
	Size int64  // file size in bytes
}

// Store is a directory of persisted protocols. All methods are safe for
// concurrent use: state lives in the filesystem and writes are atomic
// renames.
type Store struct {
	dir      string
	readonly bool
	metrics  storeMetrics
}

// Open returns a store backed by dir, creating the directory (and parents)
// if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// OpenReadOnly returns a store over an existing directory that will never
// be written: Put fails with ErrReadOnly and nothing is created on disk.
// Unlike Open, the directory must already exist — a read-only catalog that
// is not there is a deployment error, not something to silently create
// empty.
func OpenReadOnly(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read-only catalog: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("store: read-only catalog %s is not a directory", dir)
	}
	return &Store{dir: dir, readonly: true}, nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store rejects writes.
func (s *Store) ReadOnly() bool { return s.readonly }

// tier names the store's role in telemetry labels.
func (s *Store) tier() string {
	if s.readonly {
		return "ro"
	}
	return "rw"
}

// Filename returns the file name (without directory) under which the
// protocol for key is stored: the first 32 hex characters of SHA-256(key)
// plus the store extension. Content addressing through a fixed-width hash
// keeps names filesystem-safe no matter what the key contains.
func Filename(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:32] + fileExt
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, Filename(key))
}

// Put serializes the protocol and atomically installs it under meta.Key,
// overwriting any previous entry for the key. meta.Code and meta.Params are
// derived from the protocol; callers only provide Key and Options.
func (s *Store) Put(meta Meta, p *core.Protocol) error {
	if s.readonly {
		return fmt.Errorf("%w: %s", ErrReadOnly, s.dir)
	}
	if meta.Key == "" {
		return fmt.Errorf("store: empty key")
	}
	data, err := Encode(meta, p)
	if err != nil {
		return err
	}
	// Atomic install: a reader never observes a half-written entry, and a
	// crash mid-write leaves at worst a stale *.tmp file that List ignores.
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(meta.Key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.metrics.writes.Inc()
	return nil
}

// Get loads and decodes the protocol stored under key. Missing entries
// return ErrNotFound; unreadable ones ErrCorrupt or ErrVersion (see Decode).
// A file whose header key disagrees with the requested key — for example a
// file copied under the wrong name — is reported as corrupt.
func (s *Store) Get(key string) (*core.Protocol, Meta, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: %w", err)
	}
	p, meta, err := Decode(data)
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
			s.metrics.corrupt.Inc()
		}
		return nil, Meta{}, err
	}
	if meta.Key != key {
		s.metrics.corrupt.Inc()
		return nil, Meta{}, fmt.Errorf("%w: file is addressed by key %q, not %q", ErrCorrupt, meta.Key, key)
	}
	s.metrics.reads.Inc()
	return p, meta, nil
}

// List enumerates the stored protocols this build can actually serve,
// reading only each file's header line, sorted by key. Files that are not
// store entries (wrong extension), entries whose header cannot be parsed,
// and entries of an incompatible schema version are all skipped silently —
// List feeds warm-start and "servable without synthesis" listings, and one
// bad or foreign file must not take down enumeration of the rest (nor be
// advertised as servable). Use Get to surface a specific entry's typed
// error.
func (s *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), fileExt) {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		h, size, err := readHeader(path)
		if err != nil || h.Format != Format || h.Version != Version {
			continue
		}
		out = append(out, Entry{
			Meta: Meta{Key: h.Key, Code: h.Code, Params: h.Params},
			Path: path,
			Size: size,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// readHeader parses just the first line of a store file.
func readHeader(path string) (header, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return header{}, 0, err
	}
	// Headers are a few hundred bytes; 64 KiB leaves room for pathological
	// keys (large custom check matrices) without reading whole payloads.
	buf := make([]byte, 64*1024)
	n, err := f.Read(buf)
	if n == 0 && err != nil {
		return header{}, 0, err
	}
	line := buf[:n]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return header{}, 0, err
	}
	return h, fi.Size(), nil
}
