package code

import (
	"testing"

	"repro/internal/f2"
)

func TestC4Parameters(t *testing.T) {
	c := C4()
	if c.N != 4 || c.K != 2 {
		t.Fatalf("C4 n,k = %d,%d", c.N, c.K)
	}
	if d := c.Distance(); d != 2 {
		t.Fatalf("C4 distance = %d, want 2", d)
	}
}

func TestC6Parameters(t *testing.T) {
	c := C6()
	if c.N != 6 || c.K != 2 {
		t.Fatalf("C6 n,k = %d,%d", c.N, c.K)
	}
	if d := c.Distance(); d != 2 {
		t.Fatalf("C6 distance = %d, want 2", d)
	}
}

func TestDualRoundTrip(t *testing.T) {
	c := Steane()
	d := c.Dual()
	if d.K != c.K || d.N != c.N {
		t.Fatal("dual changed parameters")
	}
	if !d.Hx.Row(0).Equal(c.Hz.Row(0)) {
		t.Fatal("dual did not swap matrices")
	}
	dd := d.Dual()
	if !dd.Hx.Row(0).Equal(c.Hx.Row(0)) {
		t.Fatal("double dual is not the original")
	}
	if d.Distance() != c.Distance() {
		t.Fatal("dual changed the distance")
	}
}

func TestCarbonIsC4C6Concatenation(t *testing.T) {
	// Carbon's stabilizer span contains the three C4 block stabilizers
	// (the matrices themselves are stored rank-reduced).
	c := Carbon()
	for b := 0; b < 3; b++ {
		block := f2.FromSupport(12, 4*b, 4*b+1, 4*b+2, 4*b+3)
		if !c.Hx.InSpan(block) {
			t.Fatalf("X block stabilizer %d missing from span", b)
		}
		if !c.Hz.InSpan(block) {
			t.Fatalf("Z block stabilizer %d missing from span", b)
		}
	}
	if c.K != 2 || c.Distance() != 4 {
		t.Fatalf("Carbon parameters %s", c.Params())
	}
}
