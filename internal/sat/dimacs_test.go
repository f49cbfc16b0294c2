package sat

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	src := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 {
		t.Fatalf("vars = %d", s.NumVars())
	}
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("solve: %v %v", ok, err)
	}
	// Check model satisfies both clauses.
	v := func(i int) bool { return s.Value(i) }
	if !(v(0) || !v(1)) || !(v(1) || v(2)) {
		t.Fatal("model does not satisfy formula")
	}
}

func TestParseDIMACSUnsat(t *testing.T) {
	src := "p cnf 1 2\n1 0\n-1 0\n"
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Solve(); ok {
		t.Fatal("expected UNSAT")
	}
}

// malformedDIMACS are inputs ParseDIMACS must reject.
var malformedDIMACS = []string{
	"1 2 0\n",                             // missing problem line
	"p cnf x 2\n1 0\n",                    // bad var count
	"p dnf 2 1\n1 0\n",                    // wrong format tag
	"p cnf 2 1\n1 2\n",                    // missing terminator
	"p cnf 2 1\n1 zz 0\n",                 // bad literal
	"p cnf 2 -1\n1 0\n",                   // bad clause count
	"p cnf 2 1\np cnf 2 1\n1 0\n",         // second problem line
	"p cnf 1 1\n1 0\np cnf 9 0\n",         // second problem line after clauses
	"p cnf 1 1\n-9223372036854775808 0\n", // literal whose negation overflows
}

func TestParseDIMACSErrors(t *testing.T) {
	for _, src := range malformedDIMACS {
		_, err := ParseDIMACS(strings.NewReader(src))
		var de *DIMACSError
		if !errors.As(err, &de) {
			t.Fatalf("input %q: err = %v, want a *DIMACSError", src, err)
		}
	}
}

// TestParseDIMACSCapsVariables feeds a declared count and a literal past
// MaxDIMACSVars: each a few bytes that once allocated gigabytes. Both must
// fail at once with ErrDIMACSTooLarge; the cap itself is allowed.
func TestParseDIMACSCapsVariables(t *testing.T) {
	for _, src := range []string{
		"p cnf 20000000 0",
		"p cnf 1 1\n20000000 0",
		"p cnf 1 1\n-20000000 0",
		fmt.Sprintf("p cnf %d 0", MaxDIMACSVars+1),
		fmt.Sprintf("p cnf 1 1\n%d 0", MaxDIMACSVars+1),
	} {
		_, err := ParseDIMACS(strings.NewReader(src))
		var de *DIMACSError
		if !errors.Is(err, ErrDIMACSTooLarge) || !errors.As(err, &de) {
			t.Fatalf("input %q: err = %v, want a *DIMACSError wrapping ErrDIMACSTooLarge", src, err)
		}
	}
	s, err := ParseDIMACS(strings.NewReader(fmt.Sprintf("p cnf 1 1\n%d 0\n", MaxDIMACSVars)))
	if err != nil || s.NumVars() != MaxDIMACSVars {
		t.Fatalf("literal at the cap: %v", err)
	}
}

func TestParseDIMACSGrowsVariables(t *testing.T) {
	// Clauses referencing variables beyond the declared count grow the
	// solver rather than failing.
	src := "p cnf 1 1\n3 0\n"
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 {
		t.Fatalf("vars = %d, want 3", s.NumVars())
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(b, false), MkLit(c, false))
	s.AddClause(MkLit(a, true)) // unit: becomes a level-0 fact

	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, sb.String())
	}
	ok1, _ := s.Solve()
	ok2, _ := s2.Solve()
	if ok1 != ok2 {
		t.Fatalf("satisfiability changed across round trip: %v vs %v", ok1, ok2)
	}
	if !ok2 {
		t.Fatal("formula should be SAT")
	}
	// ~a forces ~... a=false, so clause 1 needs ~b -> b=false; clause 2
	// then needs c.
	if s2.Value(0) || s2.Value(1) || !s2.Value(2) {
		t.Fatal("round-tripped model wrong")
	}
}

func TestWriteDIMACSUnsatFormula(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	s.AddClause() // empty clause
	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s2.Solve(); ok {
		t.Fatal("unsat formula round-tripped to SAT")
	}
}

// FuzzParseDIMACS feeds arbitrary bytes to ParseDIMACS: every input must
// give a *DIMACSError or a solver whose DIMACS text is a fixed point of
// parsing, WriteDIMACS → ParseDIMACS → WriteDIMACS giving identical bytes.
func FuzzParseDIMACS(f *testing.F) {
	for _, src := range append([]string{
		"c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n",
		"p cnf 1 2\n1 0\n-1 0\n",
		"p cnf 1 1\n3 0\n",
		"p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n",
		"p cnf 1 1\n0\n",
		"p cnf 20000000 0",
		"p cnf 1 1\n20000000 0",
	}, malformedDIMACS...) {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			var de *DIMACSError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v (%T), want a *DIMACSError", err, err)
			}
			return
		}
		var first bytes.Buffer
		if err := s.WriteDIMACS(&first); err != nil {
			t.Fatal(err)
		}
		s2, err := ParseDIMACS(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := s2.WriteDIMACS(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the formula:\n%s\nbecame\n%s", first.Bytes(), second.Bytes())
		}
	})
}
