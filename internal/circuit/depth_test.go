package circuit

import "testing"

func TestDepthSequentialVsParallel(t *testing.T) {
	// Two CNOTs on disjoint pairs: depth 1 each -> total 1.
	c := New(4)
	c.AppendCNOT(0, 1)
	c.AppendCNOT(2, 3)
	if d := c.Depth(); d != 1 {
		t.Fatalf("parallel CNOTs depth = %d, want 1", d)
	}
	// A chain shares qubits: depth equals length.
	c2 := New(4)
	c2.AppendCNOT(0, 1)
	c2.AppendCNOT(1, 2)
	c2.AppendCNOT(2, 3)
	if d := c2.Depth(); d != 3 {
		t.Fatalf("chain depth = %d, want 3", d)
	}
}

func TestDepthWithPrepAndMeasure(t *testing.T) {
	c := New(2)
	c.AppendPrepZ(0)   // step 1 on wire 0
	c.AppendPrepX(1)   // step 1 on wire 1
	c.AppendCNOT(0, 1) // step 2
	c.AppendMeasZ(1)   // step 3 on wire 1
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

func TestEmptyCircuitDepth(t *testing.T) {
	c := New(3)
	if c.Depth() != 0 {
		t.Fatal("empty circuit should have depth 0")
	}
}
