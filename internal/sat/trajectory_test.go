package sat

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"
)

// random3SAT builds on s, a fresh or reset solver, a seeded uniform random
// 3-SAT instance over n variables at clause ratio 4.26, where random
// instances are hardest.
func random3SAT(s *Solver, seed int64, n int) *Solver {
	rng := rand.New(rand.NewSource(seed))
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

// loadDIMACS parses a gzipped DIMACS file into s, a fresh or reset solver.
func loadDIMACS(t testing.TB, s *Solver, path string) *Solver {
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
	s, err = parseDIMACS(s, zr)
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

// correctionProbe is a [[16,2,4]] correction probe in the recovery encoding
// (u=2, v=10), one of the UNSAT answers that make its class's weight 12
// optimal.
const correctionProbe = "testdata/css16_correction_u2_v10.cnf.gz"

// trajectoryCase is one pinned search: build adds the instance to a fresh
// or reset solver, and solving it must give exactly these counts and model.
type trajectoryCase struct {
	name                            string
	build                           func(testing.TB, *Solver) *Solver
	sat                             bool
	decisions, propagations, confls int64
	model                           string
}

// trajectoryCases are the pinned instances. The two larger ones run
// through reduceDB and arena compaction.
var trajectoryCases = []trajectoryCase{
	{"pigeonhole-6-5", func(_ testing.TB, s *Solver) *Solver { return pigeonholeSolver(s, 6, 5) },
		false, 201, 1790, 155, ""},
	{"random-3sat-200-seed4", func(_ testing.TB, s *Solver) *Solver { return random3SAT(s, 4, 200) },
		true, 9909, 303863, 7976, "126a449527a30f8f54684af06ccf870ef9943bb89bfb06b0cfa1f7a4b8cbfc2f"},
	{"css16-correction-u2-v10", func(t testing.TB, s *Solver) *Solver { return loadDIMACS(t, s, correctionProbe) },
		false, 40442, 1653827, 24146, ""},
}

// check solves s and compares its search with the pinned one.
func (tc trajectoryCase) check(t *testing.T, s *Solver) {
	t.Helper()
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
}

// TestTrajectoryPinned pins the exact search on fixed instances: decision,
// propagation and conflict counts, and the model. Synthesized protocols are
// the solver's models, so any change to a watch visit order, a literal
// order that analyze reads, a restart or a clause deletion can change them;
// it shows here first. Update the values only for a change meant to alter
// the search.
func TestTrajectoryPinned(t *testing.T) {
	for _, tc := range trajectoryCases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.build(t, NewSolver())) })
	}
}

// TestResetSolverSearchesLikeFresh runs every pinned instance on a solver
// that first solved the next instance of the list and was then Reset. Its
// search must be the pinned one: a field that Reset left stale (a saved
// phase, an activity, the heap, a watch list, the learned-clause budget)
// would change it.
func TestResetSolverSearchesLikeFresh(t *testing.T) {
	for i, tc := range trajectoryCases {
		prev := trajectoryCases[(i+1)%len(trajectoryCases)]
		t.Run(tc.name, func(t *testing.T) {
			s := prev.build(t, NewSolver())
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			s.Reset()
			tc.check(t, tc.build(t, s))
		})
	}
}

// BenchmarkSolveCorrectionProbe times one solve of the pinned correction
// probe on a fresh solver, parsed with the timer stopped, and reports the
// propagation rate beside ns/op.
func BenchmarkSolveCorrectionProbe(b *testing.B) {
	var props int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := loadDIMACS(b, NewSolver(), correctionProbe)
		b.StartTimer()
		if ok, err := s.Solve(); err != nil || ok {
			b.Fatalf("SAT=%v, err=%v; want UNSAT", ok, err)
		}
		_, p, _ := s.Stats()
		props += p
	}
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}

// Stats returns cumulative decision, propagation and conflict counts.
func (s *Solver) Stats() (decisions, propagations, conflicts int64) {
	return s.decisions, s.propags, s.conflicts
}
