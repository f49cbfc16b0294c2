package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testSpec is a small valid spec for store-level tests; nothing here ever
// executes, so the key does not need to resolve.
func testSpec() Spec {
	return Spec{
		ProtocolKey: "test-protocol",
		Rates:       []float64{1e-2, 5e-2},
		MCShots:     10000,
	}
}

func TestSpecIDCoalescesDefaults(t *testing.T) {
	base := testSpec()
	explicit := base
	explicit.Noise = NoiseCircuitDepolarizing
	explicit.Method = "auto"
	explicit.Engine = "auto"
	explicit.Seed = 1
	if base.ID() != explicit.ID() {
		t.Errorf("defaulted and explicit specs got different IDs: %s vs %s", base.ID(), explicit.ID())
	}
	changed := base
	changed.Rates = []float64{1e-2}
	if base.ID() == changed.ID() {
		t.Error("different rate grids share an ID")
	}
	changed = base
	changed.Method = "direct"
	if base.ID() == changed.ID() {
		t.Error("different methods share an ID")
	}
	changed = base
	changed.Engine = "scalar"
	if base.ID() == changed.ID() {
		t.Error("different engines share an ID")
	}
	if len(base.ID()) != 32 {
		t.Errorf("ID %q is not 32 hex chars", base.ID())
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []struct {
		name string
		mod  func(*Spec)
	}{
		{"empty key", func(s *Spec) { s.ProtocolKey = "" }},
		{"unknown noise", func(s *Spec) { s.Noise = "phenomenological" }},
		{"unknown method", func(s *Spec) { s.Method = "magic" }},
		{"unknown engine", func(s *Spec) { s.Engine = "gpu" }},
		{"no rates", func(s *Spec) { s.Rates = nil }},
		{"rate at 0", func(s *Spec) { s.Rates = []float64{0} }},
		{"rate at 1", func(s *Spec) { s.Rates = []float64{1} }},
		{"target_rse at 1", func(s *Spec) { s.TargetRSE = 1 }},
		{"NaN rate", func(s *Spec) { s.Rates = []float64{1e-3, math.NaN()} }},
		{"NaN target_rse, no budget", func(s *Spec) { s.MCShots = 0; s.TargetRSE = math.NaN() }},
		{"NaN target_rse", func(s *Spec) { s.TargetRSE = math.NaN() }},
		{"negative budget", func(s *Spec) { s.MCShots = -1 }},
		{"no budget", func(s *Spec) { s.MCShots = 0; s.TargetRSE = 0 }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mod(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("Validate = %v, want ErrBadSpec", err)
			}
		})
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestStoreRoundtrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	lg, state, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if state.Done || len(state.Shards) != 0 || len(state.Points) != 0 {
		t.Fatalf("fresh job has non-empty state: %+v", state)
	}

	pt := PointState{Point: 0, Rate: 1e-2, Method: "direct"}
	counts := sim.Counts{Shots: 32768, Fails: 7}
	records := []Record{
		{Kind: "point", Point: 0, State: &pt},
		{Kind: "shard", Point: 0, Round: 0, Shard: 0, Counts: &counts},
		{Kind: "shard", Point: 0, Round: 0, Shard: 1, Counts: &sim.Counts{Shots: 32768, Fails: 3,
			Strata: []sim.StratumCount{{W: 1, Shots: 30000, Fails: 2}, {W: 2, Shots: 2768, Fails: 1}}}},
	}
	for _, rec := range records {
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != 3 || got.Done {
		t.Fatalf("fold: records=%d done=%v, want 3 records not done", got.Records, got.Done)
	}
	if got.Points[0].Method != "direct" {
		t.Errorf("point state not folded: %+v", got.Points[0])
	}
	if c := got.Shards[ShardKey{Point: 0, Round: 0, Shard: 0}]; !reflect.DeepEqual(c, counts) {
		t.Errorf("shard 0 counts = %+v, want %+v", c, counts)
	}
	if c := got.Shards[ShardKey{Point: 0, Round: 0, Shard: 1}]; len(c.Strata) != 2 {
		t.Errorf("shard 1 strata not folded: %+v", c)
	}

	// Reopening for append resumes the sequence and the appended record is
	// folded on the next load.
	lg2, state2, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if state2.Records != 3 {
		t.Fatalf("reopen folded %d records, want 3", state2.Records)
	}
	if err := lg2.Append(Record{Kind: "done"}); err != nil {
		t.Fatal(err)
	}
	lg2.Close()
	got, err = st.Load(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Records != 4 {
		t.Fatalf("after done record: records=%d done=%v", got.Records, got.Done)
	}
}

// TestLoadDiscardsCorruptTail is the recovery contract: any damage to the
// end of the log — a torn final line, a flipped byte, a spliced-in record
// with the wrong sequence — silently rolls the job back to the last good
// record, and reopening for append truncates the damage away.
func TestLoadDiscardsCorruptTail(t *testing.T) {
	corruptions := []struct {
		name string
		mod  func(line []byte) []byte
	}{
		{"torn write", func(line []byte) []byte { return line[:len(line)/2] }},
		{"flipped byte", func(line []byte) []byte {
			out := append([]byte(nil), line...)
			out[len(out)/2] ^= 0x40
			return out
		}},
		{"wrong sequence", func(line []byte) []byte {
			return []byte(strings.Replace(string(line), `"seq":3`, `"seq":7`, 1))
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			spec := testSpec()
			lg, _, err := st.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			good := sim.Counts{Shots: 32768, Fails: 5}
			bad := sim.Counts{Shots: 32768, Fails: 9}
			for i, c := range []sim.Counts{good, good, bad} {
				c := c
				if err := lg.Append(Record{Kind: "shard", Point: 0, Round: 0, Shard: i, Counts: &c}); err != nil {
					t.Fatal(err)
				}
			}
			lg.Close()

			// Damage the last record's line in place.
			path := filepath.Join(st.Dir(), Filename(spec.ID()))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
			last := []byte(strings.TrimSuffix(lines[len(lines)-1], "\n"))
			mangled := append([]byte(nil), []byte(strings.Join(lines[:len(lines)-1], ""))...)
			mangled = append(mangled, tc.mod(last)...)
			mangled = append(mangled, '\n')
			if err := os.WriteFile(path, mangled, 0o644); err != nil {
				t.Fatal(err)
			}

			state, err := st.Load(spec.ID())
			if err != nil {
				t.Fatalf("corrupt tail must not fail the load: %v", err)
			}
			if state.Records != 2 {
				t.Fatalf("folded %d records, want 2 (tail discarded)", state.Records)
			}
			if _, ok := state.Shards[ShardKey{Point: 0, Round: 0, Shard: 2}]; ok {
				t.Fatal("corrupt shard record leaked into the folded state")
			}

			// Reopen for append: the torn tail is truncated and the next
			// record lands at the sequence after the last good one.
			lg2, state2, err := st.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			if state2.Records != 2 {
				t.Fatalf("reopen folded %d records, want 2", state2.Records)
			}
			redo := bad
			if err := lg2.Append(Record{Kind: "shard", Point: 0, Round: 0, Shard: 2, Counts: &redo}); err != nil {
				t.Fatal(err)
			}
			lg2.Close()
			state3, err := st.Load(spec.ID())
			if err != nil {
				t.Fatal(err)
			}
			if state3.Records != 3 {
				t.Fatalf("after repair: %d records, want 3", state3.Records)
			}
			if c := state3.Shards[ShardKey{Point: 0, Round: 0, Shard: 2}]; !reflect.DeepEqual(c, bad) {
				t.Fatalf("re-appended shard = %+v, want %+v", c, bad)
			}
		})
	}
}

func TestLoadTypedErrors(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("0123456789abcdef0123456789abcdef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing job: %v, want ErrNotFound", err)
	}

	// Garbage where the header should be.
	id := strings.Repeat("a", 32)
	path := filepath.Join(st.Dir(), Filename(id))
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(id); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage header: %v, want ErrCorrupt", err)
	}

	// A well-formed entry rewritten with a bumped version.
	spec := testSpec()
	lg, _, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	goodPath := filepath.Join(st.Dir(), Filename(spec.ID()))
	data, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if err := os.WriteFile(goodPath, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(spec.ID()); !errors.Is(err, ErrVersion) {
		t.Errorf("bumped version: %v, want ErrVersion", err)
	}

	// Spec line tampered with: the header checksum catches it.
	tampered := strings.Replace(string(data), `"mc_shots":10000`, `"mc_shots":99999`, 1)
	if err := os.WriteFile(goodPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(spec.ID()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered spec: %v, want ErrCorrupt", err)
	}
}

func TestListSkipsForeignFiles(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	lg, _, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	// Foreign files that must not appear: a protocol-store entry, a
	// stray temp file, garbage with the job extension.
	for name, content := range map[string]string{
		"deadbeef.dfp":                   `{"format":"dftsp-protocol","version":1}`,
		"job-1.tmp":                      "half-written",
		strings.Repeat("b", 32) + ".dfj": "not a job file",
	} {
		if err := os.WriteFile(filepath.Join(st.Dir(), name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != spec.ID() || entries[0].Key != spec.ProtocolKey {
		t.Fatalf("List = %+v, want exactly the one real job", entries)
	}
}

// resealRecords gives every line of recs that decodes as a record the
// checksum of its decoded record, so the fuzzer reaches the fold's
// handling of well-formed records and not only its checksum test.
func resealRecords(recs []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(recs, []byte("\n")) {
		body, nl := bytes.CutSuffix(line, []byte("\n"))
		var rec Record
		if json.Unmarshal(body, &rec) == nil {
			rec.Sum = ""
			if canon, err := json.Marshal(rec); err == nil {
				rec.Sum = checksum(canon)
				if enc, err := json.Marshal(rec); err == nil {
					body = enc
				}
			}
		}
		out = append(out, body...)
		if nl {
			out = append(out, '\n')
		}
	}
	return out
}

// FuzzLoad replays arbitrary checkpoint bytes, resealed or raw, after the
// valid header and spec line of testdata/batched.dfj. The fold under Load
// must return a typed error or a state, and rendering that state as a
// status must not panic. Folding again only the bytes up to the offset it
// stopped at, the prefix Create keeps, must give the same state and stop
// at the end, just past a whole record.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "batched.dfj"))
	if err != nil {
		f.Fatal(err)
	}
	// Besides all the golden file's records, the seeds are its first
	// three, whole, torn and changed: the fuzzer minimizes every input
	// that finds new code, for longer the longer the input.
	lines := bytes.SplitAfter(golden, []byte("\n"))
	head, first := bytes.Join(lines[:2], nil), bytes.Join(lines[2:5], nil)
	f.Add(bytes.Join(lines[2:], nil), false)
	f.Add(first, false)
	f.Add(first[:len(first)-len(lines[4])/2], false)
	f.Add(bytes.Replace(first, []byte(`"kind":"shard"`), []byte(`"kind":"point"`), 1), true)
	f.Add([]byte(`{"seq":1,"kind":"point","state":{"point":7,"rate":2,"method":"rare","locations":-3,"counts":{"shots":5,"fails":9}}}`+"\n"), true)
	id := batchedSpec().ID()
	f.Fuzz(func(t *testing.T, recs []byte, reseal bool) {
		if reseal {
			recs = resealRecords(recs)
		}
		content := append(bytes.Clone(head), recs...)
		st, good, err := fold(bytes.NewReader(content), id)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		statusFromState(st, StatePaused)
		if good < int64(len(head)) || good > int64(len(content)) || content[good-1] != '\n' ||
			int64(bytes.Count(content[len(head):good], []byte("\n"))) != st.Records {
			t.Fatalf("fold of %q stopped at byte %d with %d records", content, good, st.Records)
		}
		again, end, err := fold(bytes.NewReader(content[:good]), id)
		if err != nil || end != good || !reflect.DeepEqual(again, st) {
			t.Fatalf("folding the kept %d bytes again: %+v to byte %d, %v; want %+v", good, again, end, err, st)
		}
	})
}
