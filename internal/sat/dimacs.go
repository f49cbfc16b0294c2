package sat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS serializes the solver's problem clauses (not learned clauses)
// in DIMACS CNF format, the interchange format of SAT competitions and
// external tools, simplified by the facts the solver holds at level 0: those
// come first as unit clauses, a clause they satisfy is left out and a
// literal they falsify is dropped. The text is a fixed point: parsing it
// with ParseDIMACS and writing again gives the same bytes. A solver already
// known unsatisfiable is written as the single empty clause.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s.unsat {
		fmt.Fprintf(bw, "p cnf %d 1\n0\n", s.NumVars())
		return bw.Flush()
	}
	var units []Lit
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			units = append(units, l)
		}
	}
	// at0 is l's value at level 0.
	at0 := func(l Lit) lbool {
		if s.level[l.Var()] != 0 {
			return lUndef
		}
		return s.vals[l]
	}
	var clauses [][]Lit
clause:
	for _, c := range s.clauses {
		var open []Lit
		for _, l := range s.lits(c) {
			switch at0(l) {
			case lTrue:
				continue clause
			case lUndef:
				open = append(open, l)
			}
		}
		clauses = append(clauses, open)
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(units)+len(clauses))
	for _, l := range units {
		fmt.Fprintf(bw, "%d 0\n", dimacsLit(l))
	}
	for _, c := range clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", dimacsLit(l))
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// dimacsLit converts a literal to the 1-based signed DIMACS convention.
func dimacsLit(l Lit) int {
	v := l.Var() + 1
	if l.Sign() {
		return -v
	}
	return v
}

// MaxDIMACSVars caps the variables ParseDIMACS allocates, declared or
// referenced: a few bytes of input must not buy gigabytes of solver state.
// At the cap a solver holds about 90 MB. The largest committed instance
// (testdata/css16_correction_u2_v10.cnf.gz) has 1361 variables and the
// largest correction probe of the Table I classes about 3300.
const MaxDIMACSVars = 1 << 20

// ErrDIMACSTooLarge is the cause of a DIMACSError for a declared variable
// count or a literal beyond MaxDIMACSVars.
var ErrDIMACSTooLarge = errors.New("sat: DIMACS variable beyond MaxDIMACSVars")

// DIMACSError reports input ParseDIMACS rejects.
type DIMACSError struct {
	Line int    // 1-based input line; 0 for the input as a whole
	Msg  string // what is wrong
	Err  error  // the cause, if any (ErrDIMACSTooLarge, a read error)
}

func (e *DIMACSError) Error() string {
	if e.Line == 0 {
		return "sat: DIMACS: " + e.Msg
	}
	return fmt.Sprintf("sat: DIMACS line %d: %s", e.Line, e.Msg)
}

func (e *DIMACSError) Unwrap() error { return e.Err }

// ParseDIMACS reads a DIMACS CNF problem into a fresh solver. Comment lines
// ("c ...") and exactly one problem line ("p cnf V C") are handled;
// variables are allocated up to the declared count (growing if clauses
// reference more). Every rejected input gives a *DIMACSError, and a count or
// literal beyond MaxDIMACSVars one that wraps ErrDIMACSTooLarge.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	return parseDIMACS(NewSolver(), r)
}

// parseDIMACS is ParseDIMACS into s, a fresh or reset solver.
func parseDIMACS(s *Solver, r io.Reader) (*Solver, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	declared := false
	var cur []Lit
	line := 0
	fail := func(cause error, format string, args ...any) error {
		return &DIMACSError{Line: line, Msg: fmt.Sprintf(format, args...), Err: cause}
	}
	// ensure allocates variables up to v, a declared count or the magnitude
	// of a literal (negative only when negating the literal overflowed).
	ensure := func(v int) error {
		if v < 0 || v > MaxDIMACSVars {
			return fail(ErrDIMACSTooLarge, "variable count %d beyond the cap of %d", v, MaxDIMACSVars)
		}
		for s.NumVars() < v {
			s.NewVar()
		}
		return nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "p") {
			if declared {
				return nil, fail(nil, "second problem line %q", text)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[0] != "p" || fields[1] != "cnf" {
				return nil, fail(nil, "malformed problem line %q", text)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fail(nil, "bad variable count in %q", text)
			}
			if nc, err := strconv.Atoi(fields[3]); err != nil || nc < 0 {
				return nil, fail(nil, "bad clause count in %q", text)
			}
			if err := ensure(nv); err != nil {
				return nil, err
			}
			declared = true
			continue
		}
		for _, tok := range strings.Fields(text) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fail(nil, "bad literal %q", tok)
			}
			if n == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			if err := ensure(v); err != nil {
				return nil, err
			}
			cur = append(cur, MkLit(v-1, n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		line++ // the line the scanner failed on
		return nil, fail(err, "%v", err)
	}
	line = 0
	if len(cur) > 0 {
		return nil, fail(nil, "trailing clause without terminating 0")
	}
	if !declared {
		return nil, fail(nil, "missing problem line")
	}
	return s, nil
}
