package decoder

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/f2"
)

func TestSteaneLookup(t *testing.T) {
	cs := code.Steane()
	l := NewLookup(cs.Hz)
	if l.Size() != 8 {
		t.Fatalf("table size = %d, want 2^3", l.Size())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every weight-1 X error must decode exactly (distance 3).
	for q := 0; q < cs.N; q++ {
		e := f2.FromSupport(cs.N, q)
		c := l.Decode(e)
		if !c.Equal(e) {
			t.Fatalf("weight-1 error on %d decoded to %v", q, c)
		}
	}
	// The zero syndrome decodes to nothing.
	if c := l.Decode(f2.NewVec(cs.N)); !c.IsZero() {
		t.Fatalf("zero error decoded to %v", c)
	}
}

func TestHammingLookup(t *testing.T) {
	cs := code.Hamming15()
	l := NewLookup(cs.Hz)
	if l.Size() != 16 {
		t.Fatalf("table size = %d, want 16", l.Size())
	}
	for q := 0; q < cs.N; q++ {
		e := f2.FromSupport(cs.N, q)
		if !l.Decode(e).Equal(e) {
			t.Fatalf("weight-1 error on %d misdecoded", q)
		}
	}
}

func TestDecodeSyndromeDirect(t *testing.T) {
	cs := code.Steane()
	l := NewLookup(cs.Hz)
	e := f2.FromSupport(cs.N, 4)
	s := cs.Hz.MulVec(e)
	if c := l.DecodeSyndrome(s); !c.Equal(e) {
		t.Fatalf("syndrome decode gave %v", c)
	}
}

// Property: decoding any error yields a correction with the same syndrome,
// of weight no larger than the error itself.
func TestDecoderMinimality(t *testing.T) {
	cs := code.Surface3()
	l := NewLookup(cs.Hz)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		e := f2.NewVec(cs.N)
		for q := 0; q < cs.N; q++ {
			if rng.Intn(3) == 0 {
				e.Set(q, true)
			}
		}
		c := l.Decode(e)
		if !cs.Hz.MulVec(c).Equal(cs.Hz.MulVec(e)) {
			t.Fatalf("correction syndrome mismatch for %v", e)
		}
		if c.Weight() > e.Weight() {
			t.Fatalf("decoder returned weight %d for error of weight %d", c.Weight(), e.Weight())
		}
	}
}

// TestDenseMatchesLookup pins the dense-array decoder to the reference
// lookup table: identical corrections for random errors and for every
// explicit syndrome, on several catalog codes.
func TestDenseMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cs := range []*code.CSS{code.Steane(), code.Hamming15(), code.Surface3()} {
		lk := NewLookup(cs.Hz)
		d, err := NewDense(cs.Hz)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != lk.Size() {
			t.Fatalf("%s: dense size %d != lookup size %d", cs.Name, d.Size(), lk.Size())
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			e := f2.NewVec(cs.N)
			for q := 0; q < cs.N; q++ {
				if rng.Intn(2) == 1 {
					e.Flip(q)
				}
			}
			if got, want := d.Decode(e), lk.Decode(e); !got.Equal(want) {
				t.Fatalf("%s: dense decoded %v to %v, lookup to %v", cs.Name, e, got, want)
			}
		}
		for idx := 0; idx < d.Size(); idx++ {
			s := f2.NewVec(d.Rank())
			for i := 0; i < d.Rank(); i++ {
				if idx>>uint(i)&1 == 1 {
					s.Set(i, true)
				}
			}
			if got, want := d.DecodeSyndrome(s), lk.DecodeSyndrome(s); !got.Equal(want) {
				t.Fatalf("%s: syndrome %v decoded to %v, lookup to %v", cs.Name, s, got, want)
			}
		}
	}
}

// TestDenseIndexWords checks the allocation-free word-level primitives used
// by the compiled simulation engine.
func TestDenseIndexWords(t *testing.T) {
	cs := code.Steane()
	d, err := NewDense(cs.Hz)
	if err != nil {
		t.Fatal(err)
	}
	e := f2.FromSupport(cs.N, 2, 5)
	idx := d.Index(e.Words())
	corr := d.CorrectionWords(idx)
	c := f2.NewVec(cs.N)
	for q := 0; q < cs.N; q++ {
		if corr[q/64]>>(uint(q)%64)&1 == 1 {
			c.Flip(q)
		}
	}
	if !c.Equal(d.Decode(e)) {
		t.Fatalf("word-level correction %v != Decode %v", c, d.Decode(e))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = d.CorrectionWords(d.Index(e.Words()))
	}); allocs != 0 {
		t.Fatalf("Index/CorrectionWords allocate %.2f per call, want 0", allocs)
	}
}

// TestDenseRefusesHighRankAtOnce gives NewDense check matrices on 40
// qubits of rank 17, one past the dense bound of 16, and of rank 30: each
// must be refused with an error naming its rank, before any syndrome is
// enumerated — their lookup tables would hold 2^17 and 2^30 entries.
func TestDenseRefusesHighRankAtOnce(t *testing.T) {
	for _, rank := range []int{17, 30} {
		rng := rand.New(rand.NewSource(int64(rank)))
		h := f2.NewMat(40)
		for i := 0; i < rank; i++ {
			row := f2.FromSupport(40, i)
			for q := 30; q < 40; q++ {
				if rng.Intn(2) == 1 {
					row.Flip(q)
				}
			}
			h.MustAppendRow(row)
		}
		start := time.Now()
		d, err := NewDense(h)
		if err == nil || d != nil {
			t.Fatalf("rank-%d matrix accepted: %v, %v", rank, d, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("rank %d", rank)) {
			t.Fatalf("error %q does not name rank %d", err, rank)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("rank %d: refusal took %v, want well under a second", rank, elapsed)
		}
	}
}

// DecodeSyndrome returns the correction for an explicit syndrome vector,
// exactly like Lookup.DecodeSyndrome.
func (d *Dense) DecodeSyndrome(s f2.Vec) f2.Vec {
	var idx uint64
	for i := 0; i < s.Len() && i < len(d.rows); i++ {
		if s.Get(i) {
			idx |= 1 << uint(i)
		}
	}
	return d.vecs[idx].Clone()
}

// Validate checks that every table entry reproduces its own syndrome index.
func (d *Dense) Validate() error {
	for idx, c := range d.corr {
		if got := d.Index(c); got != uint64(idx) {
			return fmt.Errorf("decoder: dense entry %d maps to syndrome %d", idx, got)
		}
	}
	return nil
}

// Size returns the number of distinct syndromes in the table.
func (l *Lookup) Size() int { return len(l.table) }

// Validate checks the defining property: every table entry reproduces its
// syndrome, and no lighter error with the same syndrome exists among errors
// of weight < the entry's weight (spot-checked up to weight 3 for speed).
func (l *Lookup) Validate() error {
	for key, e := range l.table {
		if l.h.MulVec(e).Key() != key {
			return fmt.Errorf("decoder: entry %v maps to wrong syndrome", e)
		}
	}
	return nil
}
