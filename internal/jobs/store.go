package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Format is the file-format tag of the header line; a file carrying any
// other tag is not a job file.
const Format = "dftsp-job"

// Version is the schema version this build reads and writes.
const Version = 1

// fileExt is the extension of every job file. It differs from the protocol
// store's ".dfp", so a job store may share a directory with a protocol
// store: each store's List skips the other's files.
const fileExt = ".dfj"

// header is the one-line JSON header of a job file.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	ID      string `json:"id"`
	Key     string `json:"key"`      // protocol key, for listings
	SpecSum string `json:"spec_sum"` // checksum of the spec line (without newline)
}

// Record is one checkpoint log entry, one JSON line. Records are appended
// in batches (Log.Append), each carrying a strictly sequential Seq and a
// checksum over its own encoding, so recovery can tell exactly where a
// crashed write stopped: the log is replayed record by record and folding
// stops at the first record that is truncated, corrupt (a line other than
// its record's encoding, byte for byte) or out of sequence.
type Record struct {
	// Seq is the 1-based record number; each record's Seq is exactly the
	// predecessor's plus one.
	Seq int64 `json:"seq"`

	// Kind discriminates the payload: "shard" checkpoints one completed
	// shard's counts, "point" records a point's state (resolved method at
	// start, pooled counts and statistics when done), "done" marks the
	// whole job complete.
	Kind string `json:"kind"`

	// Point, Round and Shard locate a "shard" record on the block grid;
	// Point also locates a "point" record.
	Point int `json:"point,omitempty"`
	Round int `json:"round,omitempty"`
	Shard int `json:"shard,omitempty"`

	// Counts is the exact poolable outcome of a "shard" record.
	Counts *sim.Counts `json:"counts,omitempty"`

	// State is the payload of a "point" record.
	State *PointState `json:"state,omitempty"`

	// Sum is the record checksum, computed over the record encoded with
	// Sum set to the empty string.
	Sum string `json:"sum"`
}

// PointState is the durable state of one job point. A non-done state is
// written when the point starts (pinning the resolved sampling, so a
// resumed point samples exactly as it started and offline status needs no
// protocol); a done state carries the pooled counts the final statistics
// are recomputed from.
type PointState struct {
	// Point is the point index in the spec's rate grid.
	Point int `json:"point"`

	// Rate is the physical error rate of the point.
	Rate float64 `json:"rate"`

	// Method is the resolved sampling method, "direct" or "rare" (an
	// "auto" spec resolves per point through the crossover policy).
	Method string `json:"method"`

	// MinFaults is the resolved rare-event conditioning k of a rare point
	// (sim.Sampling.MinFaults): 2 when no single fault of the protocol
	// fails. It is omitted when 1, so points written before k = 2 existed
	// decode, resume and finish as k = 1.
	MinFaults int `json:"min_faults,omitempty"`

	// CondP is the exact conditioning weight P(#faults >= 2) of a k = 2
	// point, recorded so offline status can finish its counts without the
	// protocol's single-fault table; omitted otherwise (a k = 1 weight
	// follows from the location counts).
	CondP float64 `json:"cond_p,omitempty"`

	// Locations is the protocol's fault-location count, needed to finish
	// rare-event counts; 0 for direct points.
	Locations int `json:"locations,omitempty"`

	// ClassCounts breaks Locations down by location class (indexed by
	// noise.LocKind), needed to finish rare-event counts under a biased
	// (per-class) noise spec; nil for direct points and uniform specs, so
	// legacy job files round-trip unchanged.
	ClassCounts []int `json:"class_counts,omitempty"`

	// Stream is the version of the sampled stream the point's shards are
	// drawn from: sim.BatchStream. It is omitted when 0, the stream of the
	// scalar engine earlier builds ran and the batch stream before versions
	// were recorded. An unfinished point
	// whose stream is not the one this build draws restarts from shard 0
	// on resume, so no point pools shards of two streams.
	Stream int `json:"stream,omitempty"`

	// Protocol is the content identity of the protocol the point samples:
	// the payload checksum of its store encoding, as the Resolver gives
	// it. A job names its protocol by options key, and the same key can
	// name new bytes after a synthesis change, so on resume a point
	// recorded on another protocol starts afresh (new sampling, shard 0),
	// finished or not, and an unfinished point that records none (written
	// before the field existed) restarts from shard 0 with its sampling.
	// It is omitted when empty.
	Protocol string `json:"protocol,omitempty"`

	// Counts is the pooled outcome of the point's executed shards.
	Counts sim.Counts `json:"counts"`

	// Done marks the point finished (its stopping rule fired or its
	// budget ran out).
	Done bool `json:"done,omitempty"`
}

// ShardKey addresses one shard of a job: point index, stopping-rule round,
// shard index within the round.
type ShardKey struct {
	// Point, Round and Shard are the grid coordinates of the shard.
	Point, Round, Shard int
}

// State is the folded view of a job file: its spec plus everything the
// checkpoint log proves durable. It is what a resumed coordinator starts
// from.
type State struct {
	// ID is the job's content address.
	ID string

	// Spec is the normalized job spec, exactly as submitted.
	Spec Spec

	// Shards maps each durably completed shard to its counts.
	Shards map[ShardKey]sim.Counts

	// Points holds the latest durable state of each started point.
	Points map[int]PointState

	// Done reports that the job ran to completion.
	Done bool

	// Records is the number of valid checkpoint records folded in.
	Records int64
}

// setPoint folds ps in as the latest state of its point. A state that is
// not done starts the point, so any shards of the point folded before it
// belong to an earlier start and are dropped.
func (st *State) setPoint(ps PointState) {
	if !ps.Done {
		for k := range st.Shards {
			if k.Point == ps.Point {
				delete(st.Shards, k)
			}
		}
	}
	st.Points[ps.Point] = ps
}

// Entry describes one stored job without replaying its log.
type Entry struct {
	// ID is the job's content address.
	ID string

	// Key is the protocol key the job estimates.
	Key string

	// Path is the absolute path of the backing file.
	Path string

	// Size is the file size in bytes.
	Size int64
}

// Store is a directory of persisted jobs. Creation is atomic and every
// append is one write and one fsync of a batch of whole records, so the
// store is safe against crashes at any point: recovery folds the records
// up to the first torn one and truncates the rest (see Create); methods
// are safe for concurrent use across processes for reading, but a job's
// log must only be appended to by one Log handle at a time (the runner
// guarantees one coordinator per job).
type Store struct {
	dir string
}

// Open returns a job store backed by dir, creating the directory (and
// parents) if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// Filename returns the file name (without directory) of the job with the
// given ID.
func Filename(id string) string { return id + fileExt }

func (s *Store) path(id string) string { return filepath.Join(s.dir, Filename(id)) }

// Log is an append handle on one job's checkpoint log. Append is not safe
// for concurrent use; the runner funnels all of a job's appends through
// its single coordinator.
type Log struct {
	f   *os.File
	seq int64
	buf []byte // the encoded batch, reused across appends
}

// Append assigns the next sequence numbers and checksums to recs, in
// order, and commits them as one batch: one write of their JSON lines and
// one fsync. When Append returns nil every record of the batch is durable:
// a crash at any later moment resumes at or after the last of them. A
// crash during the commit may leave any part of the batch on disk, but
// recovery folds records only up to the first torn or corrupt one (see
// Record), so it keeps a prefix of the batch's whole records.
func (l *Log) Append(recs ...Record) error {
	buf := l.buf[:0]
	for k, rec := range recs {
		rec.Seq = l.seq + int64(k) + 1
		rec.Sum = ""
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: marshal record: %w", err)
		}
		rec.Sum = checksum(data)
		data, err = json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: marshal record: %w", err)
		}
		buf = append(append(buf, data...), '\n')
	}
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("jobs: append records: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync records: %w", err)
	}
	l.seq += int64(len(recs))
	return nil
}

// Close releases the log handle.
func (l *Log) Close() error { return l.f.Close() }

// Create opens the job for spec for appending, creating its file if it
// does not exist, and returns the append handle together with the folded
// state of everything already durable. Creation writes the header and spec
// lines to a temp file and renames it into place, so a reader (or a crash)
// never observes a half-written job file. If the existing log ends in a
// torn or corrupt tail, the tail is truncated away — it is exactly the
// work that was never durable — before appending resumes.
func (s *Store) Create(spec Spec) (*Log, State, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, State{}, err
	}
	id := spec.ID()
	path := s.path(id)

	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := s.init(path, id, spec); err != nil {
			return nil, State{}, err
		}
	} else if err != nil {
		return nil, State{}, fmt.Errorf("jobs: %w", err)
	}

	st, goodBytes, err := s.load(id)
	if err != nil {
		return nil, State{}, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, State{}, fmt.Errorf("jobs: %w", err)
	}
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, State{}, fmt.Errorf("jobs: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, State{}, fmt.Errorf("jobs: %w", err)
	}
	return &Log{f: f, seq: st.Records}, st, nil
}

// init atomically creates the job file with its header and spec lines.
func (s *Store) init(path, id string, spec Spec) error {
	specLine, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("jobs: marshal spec: %w", err)
	}
	h := header{Format: Format, Version: Version, ID: id, Key: spec.ProtocolKey, SpecSum: checksum(specLine)}
	headLine, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("jobs: marshal header: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(headLine)
	buf.WriteByte('\n')
	buf.Write(specLine)
	buf.WriteByte('\n')

	tmp, err := os.CreateTemp(s.dir, "job-*.tmp")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// Load returns the folded state of the job with the given ID without
// opening it for writing. Missing jobs return ErrNotFound; an unreadable
// header or spec ErrCorrupt or ErrVersion. A corrupt checkpoint tail is
// not an error: folding stops at the last good record (see Record).
func (s *Store) Load(id string) (State, error) {
	st, _, err := s.load(id)
	return st, err
}

// load folds the job file and additionally returns the byte offset just
// past the last good record, so Create can truncate a torn tail.
func (s *Store) load(id string) (State, int64, error) {
	f, err := os.Open(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return State{}, 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err != nil {
		return State{}, 0, fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	return fold(f, id)
}

// fold replays the job file read from r, addressed by id: it checks the
// header and spec lines and folds the checkpoint records up to the first
// bad one, returning the state and the byte offset just past that record.
func fold(r io.Reader, id string) (State, int64, error) {
	// Job files hold at most a few thousand records of a few hundred bytes;
	// 1 MiB lines leave a wide margin over the largest strata payload.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	sc.Split(scanWholeLines)

	// Header line.
	if !sc.Scan() {
		return State{}, 0, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Format != Format {
		return State{}, 0, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if h.Version != Version {
		return State{}, 0, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, h.Version, Version)
	}
	if h.ID != id {
		return State{}, 0, fmt.Errorf("%w: file is addressed by id %q, not %q", ErrCorrupt, h.ID, id)
	}
	offset := int64(len(sc.Bytes())) + 1

	// Spec line, integrity-checked against the header.
	if !sc.Scan() {
		return State{}, 0, fmt.Errorf("%w: missing spec", ErrCorrupt)
	}
	specLine := sc.Bytes()
	if checksum(specLine) != h.SpecSum {
		return State{}, 0, fmt.Errorf("%w: spec checksum mismatch", ErrCorrupt)
	}
	var spec Spec
	if err := json.Unmarshal(specLine, &spec); err != nil {
		return State{}, 0, fmt.Errorf("%w: bad spec: %v", ErrCorrupt, err)
	}
	if err := spec.Validate(); err != nil {
		return State{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if spec.ID() != id {
		return State{}, 0, fmt.Errorf("%w: spec hashes to %q, not %q", ErrCorrupt, spec.ID(), id)
	}
	offset += int64(len(specLine)) + 1

	st := State{
		ID:     id,
		Spec:   spec,
		Shards: map[ShardKey]sim.Counts{},
		Points: map[int]PointState{},
	}

	// Checkpoint records: fold until the first record that is torn,
	// corrupt or out of sequence — everything after it was never durable.
	for sc.Scan() {
		line := sc.Bytes()
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		want := rec.Sum
		rec.Sum = ""
		canon, err := json.Marshal(rec)
		if err != nil || checksum(canon) != want {
			break
		}
		// The line must be the record's own encoding byte for byte: JSON
		// decoding forgives a damaged key or string byte that leaves the
		// decoded record as it was, and so would the checksum.
		rec.Sum = want
		if enc, err := json.Marshal(rec); err != nil || !bytes.Equal(enc, line) {
			break
		}
		if rec.Seq != st.Records+1 {
			break
		}
		switch rec.Kind {
		case "shard":
			if rec.Counts == nil {
				return st, offset, nil
			}
			st.Shards[ShardKey{Point: rec.Point, Round: rec.Round, Shard: rec.Shard}] = *rec.Counts
		case "point":
			if rec.State == nil {
				return st, offset, nil
			}
			st.setPoint(*rec.State)
		case "done":
			st.Done = true
		default:
			return st, offset, nil
		}
		st.Records++
		offset += int64(len(line)) + 1
	}
	return st, offset, nil
}

// scanWholeLines splits like bufio.ScanLines, but returns only lines
// that end in a newline, byte for byte: a last line whose newline was
// never written is torn, however much of it parses, and a line is never
// shortened by a carriage return. So the offset just past each returned
// line is its length plus one, and Create truncates a torn tail exactly.
func scanWholeLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// List enumerates the stored jobs this build can read, from each file's
// header line only, sorted by ID. Foreign files (wrong extension),
// unparsable headers and incompatible versions are skipped silently, for
// the same reason the protocol store's List skips them: one bad file must
// not take down enumeration — and because a job store may share its
// directory with a protocol store.
func (s *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var out []Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), fileExt) {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var h header
		ok := sc.Scan() && json.Unmarshal(sc.Bytes(), &h) == nil &&
			h.Format == Format && h.Version == Version
		fi, statErr := f.Stat()
		f.Close()
		if !ok || statErr != nil || h.ID+fileExt != de.Name() {
			continue
		}
		out = append(out, Entry{ID: h.ID, Key: h.Key, Path: path, Size: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
