package correct

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/code"
	"repro/internal/f2"
)

// memoCounts is a Memo's count callback with the counts it was called with.
type memoCounts struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *memoCounts) count(result string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[result]++
}

func (c *memoCounts) get() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]int{"hit": c.n["hit"], "miss": c.n["miss"]}
}

func newCountedMemo() (*Memo, *memoCounts) {
	c := &memoCounts{n: map[string]int{}}
	return NewMemo(c.count), c
}

// tableProblem returns the detection group, reduction group and errors of
// the first table class of code name and sector kind.
func tableProblem(t *testing.T, name string, kind code.ErrType) (det, red *f2.Mat, errs []f2.Vec) {
	t.Helper()
	for _, c := range loadTableClasses(t) {
		if c.cs.Name == name && c.kind == kind {
			return c.cs.DetectionGroup(kind), c.cs.ReductionGroup(kind), c.errs
		}
	}
	t.Fatalf("no %s %v class in testdata/classes.txt", name, kind)
	return nil, nil, nil
}

func wantCounts(t *testing.T, c *memoCounts, hit, miss int) {
	t.Helper()
	want := map[string]int{"hit": hit, "miss": miss}
	if got := c.get(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo counts %v, want %v", got, want)
	}
}

// TestMemoHitMatchesFreshSolve checks that a remembered block is the one a
// fresh Synthesize of the same inputs returns, that the memo hands out
// clones (mutating one changes no later answer), and that a nil memo is
// plain Synthesize.
func TestMemoHitMatchesFreshSolve(t *testing.T) {
	ctx := context.Background()
	var (
		det, red *f2.Mat
		errs     []f2.Vec
		fresh    *Block
	)
	for _, c := range loadTableClasses(t) {
		if c.cs.Name != "Shor" {
			continue
		}
		det, red, errs = c.cs.DetectionGroup(c.kind), c.cs.ReductionGroup(c.kind), c.errs
		var err error
		if fresh, err = Synthesize(ctx, det, red, errs); err != nil {
			t.Fatal(err)
		}
		if fresh.Ancillas() > 0 && len(errs) > 1 {
			break
		}
	}
	if fresh.Ancillas() == 0 {
		t.Fatal("no Shor table class needs a measurement")
	}
	if blk, err := (*Memo)(nil).Synthesize(ctx, det, red, errs); err != nil || !reflect.DeepEqual(blk, fresh) {
		t.Fatalf("nil memo: block %v, %v; want %v", blk, err, fresh)
	}
	m, counts := newCountedMemo()
	first, err := m.Synthesize(ctx, det, red, errs)
	if err != nil || !reflect.DeepEqual(first, fresh) {
		t.Fatalf("miss: block %v, %v; want %v", first, err, fresh)
	}
	// The caller owns what it got: scribble over it.
	first.Stabs[0].Flip(0)
	for k := range first.Recovery {
		first.Recovery[k].Flip(1)
	}
	first.Recovery["scribbled"] = f2.NewVec(1)
	// Equal matrices built apart address the same entry.
	hit, err := m.Synthesize(ctx, det.Clone(), red.Clone(), errs)
	if err != nil || !reflect.DeepEqual(hit, fresh) {
		t.Fatalf("hit after the miss's block was mutated: %v, %v; want %v", hit, err, fresh)
	}
	hit.Stabs[0].Flip(0)
	if again, _ := m.Synthesize(ctx, det, red, errs); !reflect.DeepEqual(again, fresh) {
		t.Fatalf("hit after a hit's block was mutated: %v; want %v", again, fresh)
	}
	wantCounts(t, counts, 2, 1)

	// Another order of the errors or a smaller class is another problem.
	rev := append([]f2.Vec(nil), errs...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for _, other := range [][]f2.Vec{rev, errs[1:]} {
		want, err := Synthesize(ctx, det, red, other)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.Synthesize(ctx, det, red, other); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: block %v, %v; want %v", other, got, err, want)
		}
	}
	wantCounts(t, counts, 2, 3)
}

// TestMemoDoesNotKeepErrors checks that neither a failed problem nor a
// cancelled solve is remembered: each later call solves again.
func TestMemoDoesNotKeepErrors(t *testing.T) {
	m, counts := newCountedMemo()
	// With no detection group, two errors that no recovery serves together
	// have no correction at all.
	det, red := f2.NewMat(6), f2.NewMat(6)
	bad := []f2.Vec{vec("110000"), vec("001100")}
	for i := 0; i < 2; i++ {
		if _, err := m.Synthesize(context.Background(), det, red, bad); err == nil {
			t.Fatalf("call %d: a class with no correction was answered", i)
		}
	}
	wantCounts(t, counts, 0, 2)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	det, red, errs := tableProblem(t, "Steane", code.ErrX)
	if _, err := m.Synthesize(cancelled, det, red, errs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: error %v, want %v", err, context.Canceled)
	}
	if blk, err := m.Synthesize(context.Background(), det, red, errs); err != nil || blk == nil {
		t.Fatalf("solve after a cancelled one: %v, %v", blk, err)
	}
	wantCounts(t, counts, 0, 4)
	if len(m.blocks) != 1 || len(m.order) != 1 {
		t.Fatalf("memo holds %d blocks (%d in order), want the one solved problem", len(m.blocks), len(m.order))
	}
}

// TestMemoConcurrentCallers asks for one problem from several goroutines
// at once: each gets the block a fresh solve returns, every call is a hit
// or a miss, and the memo keeps the problem once however many solved it.
func TestMemoConcurrentCallers(t *testing.T) {
	det, red, errs := tableProblem(t, "Steane", code.ErrX)
	want, err := Synthesize(context.Background(), det, red, errs)
	if err != nil {
		t.Fatal(err)
	}
	m, counts := newCountedMemo()
	const callers = 4
	blks := make([]*Block, callers)
	errs2 := make([]error, callers)
	var wg sync.WaitGroup
	for i := range blks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blks[i], errs2[i] = m.Synthesize(context.Background(), det, red, errs)
		}()
	}
	wg.Wait()
	for i := range blks {
		if errs2[i] != nil || !reflect.DeepEqual(blks[i], want) {
			t.Fatalf("caller %d: block %v, %v; want %v", i, blks[i], errs2[i], want)
		}
	}
	if got := counts.get(); got["miss"] < 1 || got["hit"]+got["miss"] != callers {
		t.Fatalf("memo counts %v, want at least 1 miss and %d calls", got, callers)
	}
	if len(m.blocks) != 1 || len(m.order) != 1 {
		t.Fatalf("memo holds %d blocks (%d in order), want the one problem once", len(m.blocks), len(m.order))
	}
}

// TestMemoEvictsOldestPastCap solves memoCap + 1 distinct problems: the
// first one solved is the one dropped, and solving it again is a miss.
func TestMemoEvictsOldestPastCap(t *testing.T) {
	ctx := context.Background()
	const n = 10 // 2^10 distinct single errors > memoCap + 1
	det, red := f2.MustMatFromStrings("1111111111"), f2.NewMat(n)
	problem := func(i int) []f2.Vec {
		e := f2.NewVec(n)
		for q := 0; q < n; q++ {
			e.Set(q, i>>q&1 == 1)
		}
		return []f2.Vec{e}
	}
	m, counts := newCountedMemo()
	for i := 0; i <= memoCap; i++ {
		if _, err := m.Synthesize(ctx, det, red, problem(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantCounts(t, counts, 0, memoCap+1)
	if len(m.blocks) != memoCap || len(m.order) != memoCap {
		t.Fatalf("memo holds %d blocks (%d in order), want %d", len(m.blocks), len(m.order), memoCap)
	}
	if _, ok := m.blocks[memoKey(det.SpanBasis(), red.SpanBasis(), problem(0))]; ok {
		t.Fatal("the oldest problem is still held")
	}
	if m.order[0] != memoKey(det.SpanBasis(), red.SpanBasis(), problem(1)) {
		t.Fatal("the second-oldest problem is not first in line")
	}
	if _, err := m.Synthesize(ctx, det, red, problem(memoCap)); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, counts, 1, memoCap+1)
	if _, err := m.Synthesize(ctx, det, red, problem(0)); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, counts, 1, memoCap+2)
	if _, ok := m.blocks[memoKey(det.SpanBasis(), red.SpanBasis(), problem(1))]; ok {
		t.Fatal("re-solving the dropped problem did not drop the next oldest")
	}
}
