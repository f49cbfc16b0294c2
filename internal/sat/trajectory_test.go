package sat

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"
)

// random3SAT returns a seeded uniform random 3-SAT instance over n variables
// at clause ratio 4.26, where random instances are hardest.
func random3SAT(seed int64, n int) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := NewSolver()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	m := int(4.26*float64(n) + 0.5)
	for i := 0; i < m; i++ {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		s.AddClause(cl...)
	}
	return s
}

// loadDIMACS parses a gzipped DIMACS file.
func loadDIMACS(t *testing.T, path string) *Solver {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseDIMACS(zr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// modelSum returns the SHA-256 of the last model, one byte per variable.
func modelSum(s *Solver) string {
	h := sha256.New()
	for v := 0; v < s.NumVars(); v++ {
		b := byte(0)
		if s.Value(v) {
			b = 1
		}
		h.Write([]byte{b})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrajectoryPinned pins the exact search on fixed instances: decision,
// propagation and conflict counts, and the model. Synthesized protocols are
// the solver's models, so any change to a watch visit order, literal swap,
// restart or clause deletion can change them; it shows here first. Update
// the values only for a change meant to alter the search. The two larger
// instances run through reduceDB and arena compaction.
func TestTrajectoryPinned(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		solver                          func(*testing.T) *Solver
		sat                             bool
		decisions, propagations, confls int64
		model                           string
	}{
		{"pigeonhole-6-5", func(*testing.T) *Solver { return pigeonholeSolver(6, 5) },
			false, 201, 1790, 155, ""},
		{"random-3sat-200-seed4", func(*testing.T) *Solver { return random3SAT(4, 200) },
			true, 9909, 303863, 7976, "126a449527a30f8f54684af06ccf870ef9943bb89bfb06b0cfa1f7a4b8cbfc2f"},
		// A [[16,2,4]] correction probe in the recovery encoding (u=2, v=10),
		// one of the UNSAT answers that make its class's weight 12 optimal.
		{"css16-correction-u2-v10", func(t *testing.T) *Solver { return loadDIMACS(t, "testdata/css16_correction_u2_v10.cnf.gz") },
			false, 40442, 1653827, 24146, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.solver(t)
			ok, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			d, p, c := s.Stats()
			if ok != tc.sat || d != tc.decisions || p != tc.propagations || c != tc.confls {
				t.Fatalf("sat=%v decisions=%d propagations=%d conflicts=%d, want sat=%v %d %d %d",
					ok, d, p, c, tc.sat, tc.decisions, tc.propagations, tc.confls)
			}
			if ok {
				if got := modelSum(s); got != tc.model {
					t.Fatalf("model SHA-256 %s, want %s", got, tc.model)
				}
			}
		})
	}
}

// Stats returns cumulative decision, propagation and conflict counts.
func (s *Solver) Stats() (decisions, propagations, conflicts int64) {
	return s.decisions, s.propags, s.conflicts
}
