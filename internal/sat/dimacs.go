package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS serializes the solver's problem clauses (not learned clauses)
// in DIMACS CNF format, the interchange format of SAT competitions and
// external tools. Level-0 unit facts are emitted as unit clauses.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nClauses := len(s.clauses)
	var units []Lit
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			units = append(units, l)
		}
	}
	nClauses += len(units)
	if s.unsat {
		nClauses++
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), nClauses)
	for _, l := range units {
		fmt.Fprintf(bw, "%d 0\n", dimacsLit(l))
	}
	for _, c := range s.clauses {
		for _, l := range s.lits(c) {
			fmt.Fprintf(bw, "%d ", dimacsLit(l))
		}
		fmt.Fprintln(bw, "0")
	}
	if s.unsat {
		fmt.Fprintln(bw, "0") // the empty clause
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

// ParseDIMACS reads a DIMACS CNF problem into a fresh solver. Comment lines
// ("c ...") and the problem line ("p cnf V C") are handled; variables are
// allocated up to the declared count (growing if clauses reference more).
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := NewSolver()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	declared := false
	var cur []Lit
	ensure := func(v int) error {
		if v < 1 {
			return fmt.Errorf("sat: invalid DIMACS variable %d", v)
		}
		for s.NumVars() < v {
			s.NewVar()
		}
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: malformed problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("sat: bad variable count in %q", line)
			}
			for s.NumVars() < nv {
				s.NewVar()
			}
			declared = true
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", tok)
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
		return nil, err
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("sat: trailing clause without terminating 0")
	}
	if !declared {
		return nil, fmt.Errorf("sat: missing problem line")
	}
	return s, nil
}
