package pauli

import "testing"

func TestConstructors(t *testing.T) {
	x := XOp(4, 0, 2)
	if x.String() != "X1X3" {
		t.Fatalf("XOp string = %q", x)
	}
	z := ZOp(4, 3)
	if z.String() != "Z4" {
		t.Fatalf("ZOp string = %q", z)
	}
	y := YOp(4, 1)
	if y.String() != "Y2" {
		t.Fatalf("YOp string = %q", y)
	}
	if !New(4).IsIdentity() {
		t.Fatal("New should be identity")
	}
}

func TestParseIndexedForm(t *testing.T) {
	p, err := Parse(7, "X1 X2 Z5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.X.Get(0) || !p.X.Get(1) || !p.Z.Get(4) {
		t.Fatalf("parse wrong: %v", p)
	}
	if p.Weight() != 3 {
		t.Fatalf("weight = %d", p.Weight())
	}
	// Compact form without spaces.
	q, err := Parse(7, "X1X2Z5")
	if err != nil || !q.Equal(p) {
		t.Fatalf("compact parse mismatch: %v vs %v (%v)", q, p, err)
	}
	// Y acts on both sectors.
	y, err := Parse(3, "Y2")
	if err != nil || !y.X.Get(1) || !y.Z.Get(1) {
		t.Fatalf("Y parse wrong: %v (%v)", y, err)
	}
}

func TestParsePositionalForm(t *testing.T) {
	p, err := Parse(5, "IXZYI")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "X2Z3Y4" {
		t.Fatalf("positional parse = %q", p)
	}
	if _, err := Parse(5, "IXQII"); err == nil {
		t.Fatal("expected error for invalid letter")
	}
	if _, err := Parse(5, "IXII"); err == nil {
		t.Fatal("expected length error")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(3, "X9"); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := Parse(3, "X"); err == nil {
		t.Fatal("missing index accepted")
	}
	if p, err := Parse(3, "I"); err != nil || !p.IsIdentity() {
		t.Fatal("identity parse failed")
	}
}

func TestWeightCountsYOnce(t *testing.T) {
	p := MustParse(4, "Y1Y2")
	if p.Weight() != 2 {
		t.Fatalf("weight of Y1Y2 = %d, want 2", p.Weight())
	}
	q := MustParse(4, "X1Z1")
	if q.Weight() != 1 {
		t.Fatalf("weight of X1·Z1 (=Y1) = %d, want 1", q.Weight())
	}
}

func TestMulIsXor(t *testing.T) {
	a := MustParse(3, "X1Z2")
	b := MustParse(3, "X1X2")
	c := a.Mul(b)
	if c.String() != "Y2" {
		t.Fatalf("X1Z2 · X1X2 = %q, want Y2 (up to phase)", c)
	}
	if !a.Mul(a).IsIdentity() {
		t.Fatal("p·p should be identity up to phase")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"X1X3", "Z2Z4", "Y1", "X2Z3", "I"} {
		p := MustParse(5, s)
		q := MustParse(5, p.String())
		if !p.Equal(q) {
			t.Fatalf("round trip failed for %q: %v vs %v", s, p, q)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := XOp(3, 0)
	q := p.Clone()
	q.X.Set(1, true)
	if p.X.Get(1) {
		t.Fatal("clone shares storage")
	}
}

// Weight returns the number of qubits on which p acts non-trivially.
func (p Pauli) Weight() int {
	// |X ∪ Z| = (|X| + |Z| + |X ⊕ Z|) / 2
	return (p.X.Weight() + p.Z.Weight() + p.X.Xor(p.Z).Weight()) / 2
}
