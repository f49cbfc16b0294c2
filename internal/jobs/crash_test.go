package jobs

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/batched.dfj from the current runner")

// batchedSpec is the job of the crash-point tests: two fixed-budget direct
// points of ten shards each, so each point commits one batch of a full
// window and one of the rest.
func batchedSpec() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     10 * ShardBlocks * sim.BlockShots,
		Seed:        3,
	}
}

// writeBatchedJob runs spec to completion on a runner whose queue runs each
// shard as it is offered, so every commit takes all the shards its window
// offered, and returns the job file's bytes.
func writeBatchedJob(t *testing.T, store *Store, spec Spec) []byte {
	t.Helper()
	r := stubRunner(t, store, &stubQueue{inline: true})
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, r, st.ID); st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(store.Dir(), Filename(st.ID)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenJobFile pins testdata/batched.dfj, the seed of FuzzLoad and a
// file written with multi-record batches: the runner must still write it
// byte for byte. Rewrite it with -update when the record format or the
// batch stream changes.
func TestGoldenJobFile(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := writeBatchedJob(t, store, batchedSpec())
	path := filepath.Join("testdata", "batched.dfj")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the runner wrote a job file other than %s (rerun with -update if the format or stream changed on purpose)", path)
	}
}

// TestCrashPointsBatchedCommit enumerates the crash points of a job file
// written in batches. The file is truncated at every byte offset past its
// spec line, and separately each byte of each record is flipped. Every
// time, Create must fold exactly the records before the first torn one and
// truncate the file to just past them. Resuming from each such prefix must
// finish with counts bit-identical to the uninterrupted run.
func TestCrashPointsBatchedCommit(t *testing.T) {
	spec := batchedSpec().Normalized()
	id := spec.ID()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := writeBatchedJob(t, store, spec)
	whole, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}

	// ends[k] is the offset just past the k-th record; ends[0] is just past
	// the spec line.
	lines := bytes.SplitAfter(data, []byte("\n"))
	ends := []int{len(lines[0]) + len(lines[1])}
	for _, line := range lines[2:] {
		if len(line) > 0 {
			ends = append(ends, ends[len(ends)-1]+len(line))
		}
	}
	if n := int64(len(ends) - 1); n != whole.Records {
		t.Fatalf("file holds %d record lines, the fold %d records", n, whole.Records)
	}

	path := filepath.Join(store.Dir(), Filename(id))
	// create writes content as the job file and opens it for appending.
	create := func(content []byte) (State, []byte) {
		t.Helper()
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, st, err := store.Create(spec)
		if err != nil {
			t.Fatalf("create over %d bytes: %v", len(content), err)
		}
		lg.Close()
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return st, left
	}
	// prefix[k] is the state folded from the first k records alone.
	prefix := make([]State, len(ends))
	for k, end := range ends {
		st, left := create(data[:end])
		if st.Records != int64(k) || !bytes.Equal(left, data[:end]) {
			t.Fatalf("prefix of %d records: folded %d, kept %d of %d bytes", k, st.Records, len(left), end)
		}
		prefix[k] = st
	}
	// check requires Create over damaged to fold and keep exactly the first
	// k records.
	check := func(what string, damaged []byte, k int) {
		t.Helper()
		st, left := create(damaged)
		if !reflect.DeepEqual(st, prefix[k]) || !bytes.Equal(left, data[:ends[k]]) {
			t.Fatalf("%s: folded %d records and kept %d bytes, want %d records and %d bytes",
				what, st.Records, len(left), k, ends[k])
		}
	}

	k := 0
	for off := ends[0]; off <= len(data); off++ {
		for k+1 < len(ends) && ends[k+1] <= off {
			k++
		}
		check(fmt.Sprintf("truncated at byte %d", off), data[:off], k)
	}
	for k := 1; k < len(ends); k++ {
		for off := ends[k-1]; off < ends[k]-1; off++ {
			damaged := bytes.Clone(data)
			damaged[off] ^= 0xff
			check(fmt.Sprintf("record %d flipped at byte %d", k, off), damaged, k-1)
		}
	}

	want := map[int]sim.Counts{}
	for i := range spec.Rates {
		want[i] = whole.Points[i].Counts
	}
	for k, end := range ends {
		rs, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(rs.Dir(), Filename(id)), data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewRunner(rs, steaneResolver(t), 2, "")
		if _, err := r.Submit(spec); err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, r, id)
		if err := r.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("resume from %d records: state %q (err %q), want done", k, st.State, st.Error)
		}
		disk, err := rs.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range want {
			if !reflect.DeepEqual(disk.Points[i].Counts, c) {
				t.Errorf("resume from %d records: point %d counts %+v, want %+v", k, i, disk.Points[i].Counts, c)
			}
		}
	}
}
