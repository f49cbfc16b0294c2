package tableau

import (
	"math/rand"
	"testing"

	"repro/internal/f2"
	"repro/internal/pauli"
)

func TestInitialState(t *testing.T) {
	tb := New(3)
	for q := 0; q < 3; q++ {
		out, det := tb.MeasureZ(q, nil)
		if out || !det {
			t.Fatalf("qubit %d: |0> should measure 0 deterministically", q)
		}
	}
}

func TestXFlipsOutcome(t *testing.T) {
	tb := New(2)
	tb.X(1)
	out, det := tb.MeasureZ(1, nil)
	if !out || !det {
		t.Fatal("X|0> should measure 1 deterministically")
	}
	out, det = tb.MeasureZ(0, nil)
	if out || !det {
		t.Fatal("qubit 0 should be unaffected")
	}
}

func TestHadamardRandom(t *testing.T) {
	tb := New(1)
	tb.H(0)
	calls := 0
	out, det := tb.MeasureZ(0, func() bool { calls++; return true })
	if det {
		t.Fatal("H|0> measurement should be random")
	}
	if calls != 1 || !out {
		t.Fatal("rnd callback not honored")
	}
	// After measurement the state collapsed to |1>.
	out2, det2 := tb.MeasureZ(0, nil)
	if !det2 || !out2 {
		t.Fatal("post-measurement state should be |1> deterministically")
	}
}

func TestBellStateCorrelations(t *testing.T) {
	for _, forced := range []bool{false, true} {
		tb := New(2)
		tb.H(0)
		tb.CNOT(0, 1)
		// XX and ZZ are stabilizers.
		if e := tb.Expectation(pauli.MustParse(2, "X1X2")); e != 1 {
			t.Fatalf("<XX> = %d, want 1", e)
		}
		if e := tb.Expectation(pauli.MustParse(2, "Z1Z2")); e != 1 {
			t.Fatalf("<ZZ> = %d, want 1", e)
		}
		if e := tb.Expectation(pauli.MustParse(2, "Z1")); e != 0 {
			t.Fatalf("<Z1> = %d, want 0", e)
		}
		// YY = -XX·ZZ stabilizes with sign -1.
		if e := tb.Expectation(pauli.MustParse(2, "Y1Y2")); e != -1 {
			t.Fatalf("<YY> = %d, want -1", e)
		}
		out1, det := tb.MeasureZ(0, func() bool { return forced })
		if det {
			t.Fatal("Bell first measurement should be random")
		}
		out2, det2 := tb.MeasureZ(1, nil)
		if !det2 || out2 != out1 {
			t.Fatalf("Bell correlation broken: %v then %v (det=%v)", out1, out2, det2)
		}
	}
}

func TestGHZ(t *testing.T) {
	tb := New(3)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.CNOT(0, 2)
	for _, s := range []string{"X1X2X3", "Z1Z2", "Z2Z3"} {
		if e := tb.Expectation(pauli.MustParse(3, s)); e != 1 {
			t.Fatalf("<%s> = %d, want 1", s, e)
		}
	}
	out, _ := tb.MeasureZ(0, func() bool { return true })
	for q := 1; q < 3; q++ {
		o, det := tb.MeasureZ(q, nil)
		if !det || o != out {
			t.Fatal("GHZ collapse should correlate all qubits")
		}
	}
}

func TestSGate(t *testing.T) {
	// S|+> has stabilizer Y.
	tb := New(1)
	tb.H(0)
	tb.S(0)
	if e := tb.Expectation(pauli.MustParse(1, "Y1")); e != 1 {
		t.Fatalf("<Y> = %d, want 1", e)
	}
	if e := tb.Expectation(pauli.MustParse(1, "X1")); e != 0 {
		t.Fatalf("<X> = %d, want 0", e)
	}
	// S² = Z: S²|+> = |->.
	tb2 := New(1)
	tb2.H(0)
	tb2.S(0)
	tb2.S(0)
	if e := tb2.Expectation(pauli.MustParse(1, "X1")); e != -1 {
		t.Fatalf("<X> after S²H = %d, want -1", e)
	}
}

func TestMeasureX(t *testing.T) {
	tb := New(1)
	tb.H(0)
	out, det := tb.MeasureX(0, nil)
	if !det || out {
		t.Fatal("|+> should measure +1 in X deterministically")
	}
	tb.Z(0) // |+> -> |->
	out, det = tb.MeasureX(0, nil)
	if !det || !out {
		t.Fatal("|-> should measure -1 in X deterministically")
	}
}

func TestResetZ(t *testing.T) {
	tb := New(2)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.ResetZ(0, func() bool { return true })
	out, det := tb.MeasureZ(0, nil)
	if !det || out {
		t.Fatal("reset qubit should be |0>")
	}
}

func TestExpectationSigns(t *testing.T) {
	tb := New(2)
	tb.X(0) // |10>
	if e := tb.Expectation(pauli.MustParse(2, "Z1")); e != -1 {
		t.Fatalf("<Z1> on |1> = %d, want -1", e)
	}
	if e := tb.Expectation(pauli.MustParse(2, "Z2")); e != 1 {
		t.Fatalf("<Z2> on |0> = %d, want 1", e)
	}
	if e := tb.Expectation(pauli.MustParse(2, "Z1Z2")); e != -1 {
		t.Fatalf("<Z1Z2> = %d, want -1", e)
	}
}

func TestSteaneEncodingStabilizers(t *testing.T) {
	// Prepare Steane |0>_L with the textbook fanout encoder: |+> on the
	// pivot of each X-generator row (rows chosen so pivot columns are
	// unit) and CNOT fanout onto the rest of the row's support. The rows
	// below span the same X-stabilizer group as the paper's generators:
	// {1,2,5,6} + {3,4,5,6}... specifically {0,1,4,5}, {0,2,4,6}+{0,1,4,5}
	// = {1,2,5,6}, and {3,4,5,6} (0-based).
	tb := New(7)
	rows := [][]int{{0, 1, 4, 5}, {1, 2, 5, 6}, {3, 4, 5, 6}}
	pivots := []int{0, 2, 3}
	// Make rows RREF-like w.r.t. pivots: row i has pivot pivots[i] and no
	// other pivot columns.
	for i, p := range pivots {
		tb.H(p)
		for _, q := range rows[i] {
			if q != p {
				tb.CNOT(p, q)
			}
		}
	}
	// The state is stabilized by the X rows and by every Z vector
	// orthogonal to them.
	for i, row := range rows {
		op := pauli.XOp(7, row...)
		if e := tb.Expectation(op); e != 1 {
			t.Fatalf("X row %d: expectation %d, want 1", i, e)
		}
	}
	for _, zs := range [][]int{{0, 1, 4, 5}, {0, 2, 4, 6}, {3, 4, 5, 6}, {0, 1, 2}} {
		op := pauli.ZOp(7, zs...)
		if e := tb.Expectation(op); e != 1 {
			t.Fatalf("Z%v: expectation %d, want 1", zs, e)
		}
	}
}

func TestRepeatedMeasurementConsistency(t *testing.T) {
	// Property: measuring the same qubit twice gives the same result, on
	// random Clifford circuits.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		tb := New(n)
		for g := 0; g < 20; g++ {
			switch rng.Intn(3) {
			case 0:
				tb.H(rng.Intn(n))
			case 1:
				tb.S(rng.Intn(n))
			case 2:
				c, tgt := rng.Intn(n), rng.Intn(n)
				if c != tgt {
					tb.CNOT(c, tgt)
				}
			}
		}
		q := rng.Intn(n)
		out1, _ := tb.MeasureZ(q, func() bool { return rng.Intn(2) == 1 })
		out2, det := tb.MeasureZ(q, nil)
		if !det || out2 != out1 {
			t.Fatalf("trial %d: repeated measurement inconsistent", trial)
		}
	}
}

func TestExpectationMatchesMeasurement(t *testing.T) {
	// Property: <Z_q> = ±1 iff MeasureZ is deterministic with that result.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		tb := New(n)
		for g := 0; g < 15; g++ {
			switch rng.Intn(3) {
			case 0:
				tb.H(rng.Intn(n))
			case 1:
				tb.S(rng.Intn(n))
			case 2:
				c, tgt := rng.Intn(n), rng.Intn(n)
				if c != tgt {
					tb.CNOT(c, tgt)
				}
			}
		}
		q := rng.Intn(n)
		zq := pauli.ZOp(n, q)
		e := tb.Expectation(zq)
		cl := tb.Clone()
		out, det := cl.MeasureZ(q, func() bool { return false })
		switch e {
		case 0:
			if det {
				t.Fatalf("trial %d: <Z>=0 but measurement deterministic", trial)
			}
		case 1:
			if !det || out {
				t.Fatalf("trial %d: <Z>=1 mismatch", trial)
			}
		case -1:
			if !det || !out {
				t.Fatalf("trial %d: <Z>=-1 mismatch", trial)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := New(2)
	tb.H(0)
	cl := tb.Clone()
	cl.CNOT(0, 1)
	// Original should still have Z2 stabilizer.
	if e := tb.Expectation(pauli.MustParse(2, "Z2")); e != 1 {
		t.Fatal("clone mutated the original")
	}
	if e := cl.Expectation(pauli.MustParse(2, "Z2")); e != 0 {
		t.Fatal("clone did not evolve")
	}
}

func BenchmarkCNOTLayer(b *testing.B) {
	tb := New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 15; q++ {
			tb.CNOT(q, q+1)
		}
	}
}

// Clone returns a deep copy of the tableau.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{
		n: t.n,
		x: make([]f2.Vec, len(t.x)),
		z: make([]f2.Vec, len(t.z)),
		r: append([]uint8(nil), t.r...),
	}
	for i := range t.x {
		c.x[i] = t.x[i].Clone()
		c.z[i] = t.z[i].Clone()
	}
	return c
}

// S applies a phase gate to qubit q.
func (t *Tableau) S(q int) {
	t.checkQubit(q)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i].Get(q), t.z[i].Get(q)
		if xi && zi {
			t.r[i] ^= 1
		}
		if xi {
			t.z[i].Set(q, !zi)
		}
	}
}
