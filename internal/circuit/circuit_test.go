package circuit

import (
	"testing"

	"repro/internal/pauli"
	"repro/internal/tableau"
)

func TestPropagationThroughCNOT(t *testing.T) {
	c := New(2)
	c.AppendCNOT(0, 1)
	// X on control spreads to both qubits.
	e := c.PropagateEffect(-1, pauli.XOp(2, 0)).Err
	if !e.Equal(pauli.MustParse(2, "X1X2")) {
		t.Fatalf("X ctrl propagation: got %v", e)
	}
	// X on target stays put.
	e = c.PropagateEffect(-1, pauli.XOp(2, 1)).Err
	if !e.Equal(pauli.XOp(2, 1)) {
		t.Fatalf("X tgt propagation: got %v", e)
	}
	// Z on target spreads to both.
	e = c.PropagateEffect(-1, pauli.ZOp(2, 1)).Err
	if !e.Equal(pauli.MustParse(2, "Z1Z2")) {
		t.Fatalf("Z tgt propagation: got %v", e)
	}
	// Z on control stays put.
	e = c.PropagateEffect(-1, pauli.ZOp(2, 0)).Err
	if !e.Equal(pauli.ZOp(2, 0)) {
		t.Fatalf("Z ctrl propagation: got %v", e)
	}
}

func TestPropagationThroughH(t *testing.T) {
	c := New(1)
	c.AppendH(0)
	if e := c.PropagateEffect(-1, pauli.XOp(1, 0)).Err; !e.Equal(pauli.ZOp(1, 0)) {
		t.Fatalf("H should map X to Z, got %v", e)
	}
	if e := c.PropagateEffect(-1, pauli.YOp(1, 0)).Err; !e.Equal(pauli.YOp(1, 0)) {
		t.Fatalf("H should keep Y, got %v", e)
	}
}

func TestPrepErasesErrors(t *testing.T) {
	c := New(1)
	c.AppendPrepZ(0)
	if e := c.PropagateEffect(-1, pauli.YOp(1, 0)).Err; !e.IsIdentity() {
		t.Fatalf("prep should erase prior error, got %v", e)
	}
}

func TestPropagateFromMiddle(t *testing.T) {
	// cnot(0,1); cnot(1,2): X fault on qubit 1 after the first CNOT
	// spreads only through the second.
	c := New(3)
	c.AppendCNOT(0, 1)
	c.AppendCNOT(1, 2)
	e := c.PropagateEffect(0, pauli.XOp(3, 1)).Err
	if !e.Equal(pauli.MustParse(3, "X2X3")) {
		t.Fatalf("mid-circuit fault propagation: got %v", e)
	}
	// The same fault at the end does not spread.
	e = c.PropagateEffect(1, pauli.XOp(3, 1)).Err
	if !e.Equal(pauli.XOp(3, 1)) {
		t.Fatalf("end fault should not spread, got %v", e)
	}
}

func TestSingleFaultsCount(t *testing.T) {
	c := New(3)
	c.AppendPrepZ(0)   // 3 faults
	c.AppendPrepX(1)   // 3
	c.AppendH(2)       // 3
	c.AppendCNOT(0, 1) // 15
	faults := c.SingleFaults()
	if len(faults) != 3+3+3+15 {
		t.Fatalf("fault count = %d, want 24", len(faults))
	}
	for _, f := range faults {
		if f.Op.IsIdentity() {
			t.Fatal("identity fault enumerated")
		}
	}
}

func TestSingleFaultFinalsConsistent(t *testing.T) {
	// Each enumerated fault's Final must equal propagating its Op.
	c := New(4)
	c.AppendPrepX(0)
	c.AppendCNOT(0, 1)
	c.AppendCNOT(1, 2)
	c.AppendCNOT(0, 3)
	for _, f := range c.SingleFaults() {
		want := c.PropagateEffect(f.After, f.Op).Err
		if !f.Final.Equal(want) {
			t.Fatalf("fault %v after %d: final %v, want %v", f.Op, f.After, f.Final, want)
		}
	}
}

func TestRunMatchesTableau(t *testing.T) {
	// Bell pair via the circuit IR.
	c := New(2)
	c.AppendPrepX(0)
	c.AppendPrepZ(1)
	c.AppendCNOT(0, 1)
	tb := tableau.New(2)
	c.Run(tb, nil)
	if e := tb.Expectation(pauli.MustParse(2, "X1X2")); e != 1 {
		t.Fatalf("<XX> = %d", e)
	}
	if e := tb.Expectation(pauli.MustParse(2, "Z1Z2")); e != 1 {
		t.Fatalf("<ZZ> = %d", e)
	}
}

func TestCNOTCountAndClone(t *testing.T) {
	c := New(3)
	c.AppendPrepZ(0)
	c.AppendCNOT(0, 1)
	c.AppendCNOT(1, 2)
	if c.CNOTCount() != 2 {
		t.Fatalf("cnot count = %d", c.CNOTCount())
	}
	cl := c.Clone()
	cl.AppendCNOT(0, 2)
	if c.CNOTCount() != 2 || cl.CNOTCount() != 3 {
		t.Fatal("clone shares gate storage")
	}
}

func TestStringRendering(t *testing.T) {
	c := New(2)
	c.AppendPrepX(0)
	c.AppendCNOT(0, 1)
	want := "prep_x 0\ncnot 0 1"
	if c.String() != want {
		t.Fatalf("string = %q, want %q", c.String(), want)
	}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	return &Circuit{N: c.N, NumBits: c.NumBits, Gates: append([]Gate(nil), c.Gates...)}
}
