package f2

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 || !v.IsZero() {
		t.Fatalf("zero vector wrong: len=%d zero=%v", v.Len(), v.IsZero())
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	if v.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", v.Weight())
	}
	if !v.Get(64) || v.Get(63) {
		t.Fatalf("get returned wrong bits")
	}
	v.Flip(64)
	if v.Get(64) {
		t.Fatalf("flip did not clear bit")
	}
	got := v.Support()
	want := []int{0, 129}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("support = %v, want %v", got, want)
	}
}

func TestVecFromSupportAndString(t *testing.T) {
	v := FromSupport(5, 1, 3)
	if v.String() != "01010" {
		t.Fatalf("string = %q, want 01010", v.String())
	}
	u, err := FromString("01 010")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(v) {
		t.Fatalf("parse mismatch: %v vs %v", u, v)
	}
	if _, err := FromString("01x"); err == nil {
		t.Fatal("expected error for invalid rune")
	}
}

func TestVecXorDot(t *testing.T) {
	a := FromSupport(8, 0, 1, 2)
	b := FromSupport(8, 2, 3)
	if got := a.Xor(b); got.String() != "11010000" {
		t.Fatalf("xor = %s", got)
	}
	if a.Dot(b) != 1 {
		t.Fatalf("dot(a,b) = %d, want 1 (overlap {2})", a.Dot(b))
	}
	c := FromSupport(8, 2, 4)
	d := FromSupport(8, 2, 4)
	if c.Dot(d) != 0 {
		t.Fatalf("even overlap should give 0")
	}
}

func TestVecKeyDistinguishes(t *testing.T) {
	a := FromSupport(70, 3)
	b := FromSupport(70, 66)
	if a.Key() == b.Key() {
		t.Fatal("distinct vectors share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("clone changed key")
	}
}

func TestRREFAndRank(t *testing.T) {
	m := MustMatFromStrings(
		"1100",
		"0110",
		"1010", // = row0 + row1
		"0001",
	)
	if r := m.Rank(); r != 3 {
		t.Fatalf("rank = %d, want 3", r)
	}
	pivots := m.RREF()
	if len(pivots) != 3 || m.Rows() != 3 {
		t.Fatalf("rref pivots=%v rows=%d", pivots, m.Rows())
	}
	// RREF rows must have ones only at/after pivots and unit pivot columns.
	for i, p := range pivots {
		for j := 0; j < m.Rows(); j++ {
			want := i == j
			if m.Row(j).Get(p) != want {
				t.Fatalf("pivot column %d not unit", p)
			}
		}
	}
}

func TestKernel(t *testing.T) {
	m := MustMatFromStrings(
		"1110",
		"0111",
	)
	ker := m.Kernel()
	if ker.Rows() != 2 {
		t.Fatalf("kernel dim = %d, want 2", ker.Rows())
	}
	for i := 0; i < ker.Rows(); i++ {
		if !m.MulVec(ker.Row(i)).IsZero() {
			t.Fatalf("kernel row %d not in null space", i)
		}
	}
}

func TestSolve(t *testing.T) {
	m := MustMatFromStrings(
		"110",
		"011",
	)
	b := FromSupport(2, 0)
	x, ok := m.Solve(b)
	if !ok {
		t.Fatal("system should be solvable")
	}
	if !m.MulVec(x).Equal(b) {
		t.Fatalf("m·x = %v, want %v", m.MulVec(x), b)
	}
	// Inconsistent system: duplicate row with different rhs.
	m2 := MustMatFromStrings("110", "110")
	if _, ok := m2.Solve(FromSupport(2, 0)); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestInSpan(t *testing.T) {
	m := MustMatFromStrings("1100", "0110")
	if !m.InSpan(MustFromString("1010")) {
		t.Fatal("sum of rows should be in span")
	}
	if m.InSpan(MustFromString("0001")) {
		t.Fatal("e4 should not be in span")
	}
}

func TestMulVecTranspose(t *testing.T) {
	m := MustMatFromStrings("101", "011")
	v := MustFromString("110")
	s := m.MulVec(v)
	if s.String() != "11" {
		t.Fatalf("syndrome = %s, want 11", s)
	}
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.Row(i).Get(j) != tr.Row(j).Get(i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestCosetMinWeight(t *testing.T) {
	// Steane Z stabilizers; Z1Z2 (0-indexed {0,1}) reduces to weight 2,
	// and together with logical Z1Z2Z3 it reduces further.
	stab := MustMatFromStrings(
		"1100110",
		"1010101",
		"0001111",
	)
	e := FromSupport(7, 0, 1) // Z1Z2
	if w := CosetMinWeight(e, stab); w != 2 {
		t.Fatalf("wt_S(Z1Z2) = %d, want 2", w)
	}
	withLogical := stab.Clone()
	withLogical.MustAppendRow(FromSupport(7, 0, 1, 2)) // Z_L
	if w := CosetMinWeight(e, withLogical); w != 1 {
		t.Fatalf("wt_{S,L}(Z1Z2) = %d, want 1", w)
	}
	// An element of the group itself has weight 0.
	if w := CosetMinWeight(stab.Row(0).Clone(), stab); w != 0 {
		t.Fatalf("stabilizer element should reduce to 0")
	}
}

// CosetMinRep returns the minimum weight over the coset e + rowspan(basis)
// together with one representative achieving it: the reference that
// CosetMinWeight is held to.
func CosetMinRep(e Vec, basis *Mat) (int, Vec) {
	red := basis.SpanBasis()
	r := red.Rows()
	if r > MaxSpanRows {
		panic("f2: coset enumeration over more than 2^24 elements")
	}
	best := e.Weight()
	bestRep := e.Clone()
	cur := e.Clone()
	// Gray code: on step i, toggle basis row TrailingZeros(i).
	for i := uint64(1); i < 1<<uint(r); i++ {
		cur.XorInPlace(red.Row(bits.TrailingZeros64(i)))
		if w := cur.Weight(); w < best {
			best = w
			bestRep = cur.Clone()
			if best == 0 {
				break
			}
		}
	}
	return best, bestRep
}

func TestCosetMinRepAchieves(t *testing.T) {
	stab := MustMatFromStrings(
		"1100110",
		"1010101",
		"0001111",
	)
	e := FromSupport(7, 4, 5)
	w, rep := CosetMinRep(e, stab)
	if rep.Weight() != w {
		t.Fatalf("representative weight %d != reported %d", rep.Weight(), w)
	}
	// rep - e must be in the span.
	if !stab.InSpan(rep.Xor(e)) {
		t.Fatal("representative not in the coset")
	}
}

func TestSpanForEachCount(t *testing.T) {
	m := MustMatFromStrings("1100", "0110", "1010") // rank 2
	count := 0
	SpanForEach(m, func(v Vec) bool { count++; return true })
	if count != 4 {
		t.Fatalf("span size = %d, want 4", count)
	}
}

func TestMinWeightNonZero(t *testing.T) {
	m := MustMatFromStrings(
		"1111000",
		"0001111",
	)
	// Non-zero span elements: the two rows (weight 4 each) and their sum
	// 1110111 (weight 6), so the minimum is 4.
	if w := MinWeightNonZero(m); w != 4 {
		t.Fatalf("min nonzero weight = %d, want 4", w)
	}
	single := MustMatFromStrings("0100")
	if w := MinWeightNonZero(single); w != 1 {
		t.Fatalf("min nonzero weight = %d, want 1", w)
	}
}

// Property: RREF preserves row span.
func TestRREFPreservesSpanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		rows := 2 + rng.Intn(5)
		m := NewMat(n)
		for i := 0; i < rows; i++ {
			v := NewVec(n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 1 {
					v.Set(j, true)
				}
			}
			m.MustAppendRow(v)
		}
		orig := m.Clone()
		red := m.Clone()
		red.RREF()
		// Every original row is in the span of the reduced matrix and
		// vice versa.
		for i := 0; i < orig.Rows(); i++ {
			if !red.InSpan(orig.Row(i)) {
				return false
			}
		}
		for i := 0; i < red.Rows(); i++ {
			if !orig.InSpan(red.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve returns vectors that satisfy the system whenever the rhs
// was generated from a known solution.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		rows := 1 + rng.Intn(n)
		m := NewMat(n)
		for i := 0; i < rows; i++ {
			v := NewVec(n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 1 {
					v.Set(j, true)
				}
			}
			m.MustAppendRow(v)
		}
		x0 := NewVec(n)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 1 {
				x0.Set(j, true)
			}
		}
		b := m.MulVec(x0)
		x, ok := m.Solve(b)
		return ok && m.MulVec(x).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CosetMinWeight is invariant under adding span elements to e, and
// equals the weight of CosetMinRep's representative.
func TestCosetInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(4)
		m := NewMat(n)
		for i := 0; i < 3; i++ {
			v := NewVec(n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 1 {
					v.Set(j, true)
				}
			}
			m.MustAppendRow(v)
		}
		e := NewVec(n)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 1 {
				e.Set(j, true)
			}
		}
		shifted := e.Xor(m.Row(rng.Intn(m.Rows())))
		w, rep := CosetMinRep(e, m)
		return CosetMinWeight(e, m) == CosetMinWeight(shifted, m) && CosetMinWeight(e, m) == w && rep.Weight() == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCosetMinWeight(b *testing.B) {
	// 10-row basis over 16 columns: 1024 span elements per call.
	rng := rand.New(rand.NewSource(1))
	m := NewMat(16)
	for i := 0; i < 10; i++ {
		v := NewVec(16)
		for j := 0; j < 16; j++ {
			if rng.Intn(2) == 1 {
				v.Set(j, true)
			}
		}
		m.MustAppendRow(v)
	}
	e := FromSupport(16, 1, 5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CosetMinWeight(e, m)
	}
}
