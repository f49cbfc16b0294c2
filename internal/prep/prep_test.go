package prep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/f2"
)

func TestHeuristicPreparesAllCatalogStates(t *testing.T) {
	for _, c := range testCatalog(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			circ := Heuristic(c)
			if err := Verify(c, circ); err != nil {
				t.Fatalf("heuristic circuit wrong: %v", err)
			}
		})
	}
}

func TestOptimalSteane(t *testing.T) {
	c := code.Steane()
	circ, err := Optimal(context.Background(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if circ == nil {
		t.Fatal("optimal synthesis gave up on Steane")
	}
	if err := Verify(c, circ); err != nil {
		t.Fatalf("optimal circuit wrong: %v", err)
	}
	// The paper (via Ref. 22) reports 8 CNOTs for the optimal Steane
	// |0>_L preparation.
	if got := circ.CNOTCount(); got != 8 {
		t.Fatalf("optimal Steane CNOT count = %d, want 8", got)
	}
	heu := Heuristic(c)
	if heu.CNOTCount() < circ.CNOTCount() {
		t.Fatalf("heuristic (%d CNOTs) beat 'optimal' (%d)", heu.CNOTCount(), circ.CNOTCount())
	}
}

func TestOptimalShor(t *testing.T) {
	c := code.Shor()
	circ, err := Optimal(context.Background(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if circ == nil {
		t.Fatal("optimal synthesis gave up on Shor")
	}
	if err := Verify(c, circ); err != nil {
		t.Fatalf("optimal circuit wrong: %v", err)
	}
	// Shor |0>_L needs 2 |+> qubits fanned out over two weight-6 X
	// stabilizers with overlap handling: the optimum is 8 CNOTs.
	if got, heu := circ.CNOTCount(), Heuristic(c).CNOTCount(); got > heu {
		t.Fatalf("optimal (%d) worse than heuristic (%d)", got, heu)
	}
}

func TestOptimalNeverWorseThanHeuristic(t *testing.T) {
	for _, c := range testCatalog(t) {
		if c.N > 9 {
			continue // budgeted search targets small codes
		}
		circ, err := Optimal(context.Background(), c, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		if circ == nil {
			continue
		}
		if err := Verify(c, circ); err != nil {
			t.Fatalf("%s: optimal circuit wrong: %v", c.Name, err)
		}
		if h := Heuristic(c); circ.CNOTCount() > h.CNOTCount() {
			t.Fatalf("%s: optimal %d > heuristic %d CNOTs", c.Name, circ.CNOTCount(), h.CNOTCount())
		}
	}
}

func TestHeuristicCNOTCounts(t *testing.T) {
	// Sanity envelope: the heuristic encoder should stay within small
	// constant factors of the known-good counts.
	bounds := map[string]int{
		"Steane":  10,
		"Shor":    10,
		"Surface": 10,
	}
	for _, c := range testCatalog(t) {
		max, ok := bounds[c.Name]
		if !ok {
			continue
		}
		if got := Heuristic(c).CNOTCount(); got > max {
			t.Fatalf("%s heuristic uses %d CNOTs, budget %d", c.Name, got, max)
		}
	}
}

// testCatalog returns the catalog codes that are available (skipping any
// whose searched generator matrices are still pending).
func testCatalog(t *testing.T) []*code.CSS {
	t.Helper()
	var out []*code.CSS
	for _, build := range []func() *code.CSS{
		code.Steane, code.Shor, code.Surface3, code.CSS11,
		code.ReedMuller15, code.Hamming15, code.Tesseract,
	} {
		out = append(out, build())
	}
	return out
}

// TestOptimalCircuitsPinned pins the exact circuits Optimal returns. The
// search order decides which of several minimum-CNOT circuits comes out, and
// the protocols built on them are stored and simulated, so any change here
// must be a deliberate pin update.
func TestOptimalCircuitsPinned(t *testing.T) {
	surface := code.Surface3()
	cases := []struct {
		c    *code.CSS
		want string
	}{
		{code.Steane(), "prep_x 0; prep_x 1; prep_x 2; prep_z 3; prep_z 4; prep_z 5; prep_z 6; cnot 0 3; cnot 0 4; cnot 0 5; cnot 1 0; cnot 0 6; cnot 2 5; cnot 5 0; cnot 0 3"},
		{code.Shor(), "prep_x 0; prep_z 1; prep_z 2; prep_x 3; prep_z 4; prep_z 5; prep_z 6; prep_z 7; prep_z 8; cnot 0 1; cnot 0 2; cnot 0 6; cnot 3 4; cnot 3 6; cnot 6 8; cnot 6 7; cnot 3 5"},
		{surface, "prep_x 0; prep_x 1; prep_z 2; prep_x 3; prep_z 4; prep_z 5; prep_z 6; prep_x 7; prep_z 8; cnot 0 2; cnot 0 4; cnot 0 5; cnot 1 0; cnot 7 8; cnot 3 7; cnot 3 6; cnot 3 4"},
	}
	for _, tc := range cases {
		if testing.Short() && tc.c == surface {
			continue // the slowest search; the differential covers the rest
		}
		circ, err := Optimal(context.Background(), tc.c, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
		if got := oneLine(circ); got != tc.want {
			t.Errorf("%s: Optimal circuit\n%s\nwant\n%s", tc.c.Name, got, tc.want)
		}
	}
}

// TestOptimalMatchesReference checks that Optimal returns exactly the
// circuit (or the nil give-up) of refOptimal, the matrix-and-string-key
// search it replaced, on the catalog codes, on random small CSS codes and
// under budgets that stop both searches mid-level.
func TestOptimalMatchesReference(t *testing.T) {
	ctx := context.Background()
	check := func(name string, c *code.CSS, budget int) *circuit.Circuit {
		t.Helper()
		got, err := Optimal(ctx, c, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refOptimal(ctx, c, budget)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if g, w := oneLine(got), oneLine(want); g != w {
			t.Fatalf("%s budget %d: Optimal\n%s\nreference\n%s", name, budget, g, w)
		}
		if got != nil {
			if err := Verify(c, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return got
	}
	check("Steane", code.Steane(), 0)
	check("Shor", code.Shor(), 0)
	// An Hx that is already a unit selection needs no CNOTs; a dependent
	// Hx (a struct literal, not code.New) can never be met from a seed.
	check("unit", code.MustNew("unit", f2.MustMatFromStrings("00100", "10000"), f2.MustMatFromStrings("01000")), 0)
	check("dependent", &code.CSS{Name: "dependent", N: 5, Hx: f2.MustMatFromStrings("11000", "01100", "10100")}, 0)

	// Random codes, and on the small ones a sweep of budgets below the
	// states the full search visits: these trip the per-state check in
	// the middle of a level, before any meet (nil) and after one (the
	// best meet so far).
	rng := rand.New(rand.NewSource(15))
	nils, meets := 0, 0
	for i := 0; i < 50; i++ {
		c := randomCSS(t, rng, 4+rng.Intn(5))
		name := fmt.Sprintf("random %d %s", i, c.Name)
		check(name, c, 0)
		if c.N > 6 {
			continue
		}
		_, states, _ := optimal(ctx, c, 0)
		for budget := 1; budget < states; budget = budget*5/4 + 1 {
			if check(name, c, budget) == nil {
				nils++
			} else {
				meets++
			}
		}
	}
	if nils == 0 || meets == 0 {
		t.Fatalf("budget sweep: %d give-ups, %d circuits; want both", nils, meets)
	}
}

// TestOptimalSeedBudget is the regression test for unbounded seeding: the
// C(25,12) ≈ 5.2M unit-selection seeds of the distance-5 surface code exceed
// the default budget, so Optimal must give up at once instead of generating
// them all first.
func TestOptimalSeedBudget(t *testing.T) {
	start := time.Now()
	circ, err := Optimal(context.Background(), code.RotatedSurface(5), 0)
	if err != nil || circ != nil {
		t.Fatalf("Optimal(surface d=5) = %v, %v; want nil, nil", circ, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("giving up on the seed count took %v", el)
	}
}

// TestOptimalCancelled checks that a cancelled context stops the search
// with ctx.Err(), also before the seeds are generated.
func TestOptimalCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []*code.CSS{code.Steane(), code.RotatedSurface(5)} {
		circ, err := Optimal(ctx, c, 0)
		if !errors.Is(err, ctx.Err()) || circ != nil {
			t.Fatalf("%s: Optimal on a cancelled context = %v, %v; want %v", c.Name, circ, err, ctx.Err())
		}
	}
}

// TestOptimalAllocsPerState guards the packed search against sliding back
// to per-successor allocation: only a newly inserted state may allocate (its
// map key), plus the amortized growth of the arena, the parallel slices and
// the maps.
func TestOptimalAllocsPerState(t *testing.T) {
	c := code.Steane()
	states := 0
	allocs := testing.AllocsPerRun(3, func() {
		if _, states, _ = optimal(context.Background(), c, 0); states == 0 {
			t.Fatal("no states visited")
		}
	})
	per := allocs / float64(states)
	t.Logf("%.0f allocations for %d states (%.2f per state)", allocs, states, per)
	if per > 2 {
		t.Fatalf("Optimal(Steane) allocates %.0f times for %d states (%.2f per state), want at most 2", allocs, states, per)
	}
}

// BenchmarkOptimal times the minimum-CNOT encoder search of the two "Opt"
// codes of Table I.
func BenchmarkOptimal(b *testing.B) {
	for _, c := range []*code.CSS{code.Steane(), code.Shor()} {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if circ, err := Optimal(context.Background(), c, 0); err != nil || circ == nil {
					b.Fatalf("Optimal = %v, %v", circ, err)
				}
			}
		})
	}
}

// oneLine renders a circuit on one line, "<nil>" for a nil circuit.
func oneLine(c *circuit.Circuit) string {
	if c == nil {
		return "<nil>"
	}
	return strings.ReplaceAll(c.String(), "\n", "; ")
}

// randomCSS returns a random CSS code on n qubits with at least one logical
// qubit: random independent X checks, Z checks drawn from their kernel.
func randomCSS(t *testing.T, rng *rand.Rand, n int) *code.CSS {
	t.Helper()
	for {
		rx := 1 + rng.Intn(n-2)
		hx := f2.NewMat(n)
		for i := 0; i < rx; i++ {
			v := f2.NewVec(n)
			for q := 0; q < n; q++ {
				v.Set(q, rng.Intn(2) == 1)
			}
			hx.MustAppendRow(v)
		}
		if hx.Rank() != rx {
			continue
		}
		ker := hx.Kernel()
		hz := f2.NewMat(n)
		for i := 0; i < rng.Intn(ker.Rows()); i++ {
			hz.MustAppendRow(ker.Row(i))
		}
		if c, err := code.New(fmt.Sprintf("n%d-rx%d", n, rx), hx, hz); err == nil && c.K > 0 {
			return c
		}
	}
}

// refOptimal is the search Optimal replaced, kept verbatim as a test-only
// reference: one cloned *f2.Mat per state, keyed by the sorted row strings
// of its span basis. It has no seed-count guard, so only feed it codes with
// few seeds.
func refOptimal(ctx context.Context, c *code.CSS, maxStates int) (*circuit.Circuit, error) {
	if maxStates == 0 {
		maxStates = DefaultBudget
	}
	n := c.N
	rx := c.Hx.Rows()
	if rx == 0 {
		return circuit.New(n), nil
	}

	type edge struct {
		parent string
		p, q   int
		depth  int
	}
	targetKey := refCanonKey(c.Hx)

	fwd := map[string]edge{} // reached from a start state
	bwd := map[string]edge{} // reached from the target
	fwdMat := map[string]*f2.Mat{}
	bwdMat := map[string]*f2.Mat{}

	// Seed forward with every unit-selection subspace.
	var fwdFrontier, bwdFrontier []string
	comb := make([]int, rx)
	var seed func(start, idx int)
	seed = func(start, idx int) {
		if idx == rx {
			m := f2.NewMat(n)
			for _, p := range comb {
				m.MustAppendRow(f2.FromSupport(n, p))
			}
			k := refCanonKey(m)
			if _, ok := fwd[k]; !ok {
				fwd[k] = edge{parent: "", p: -1, q: -1, depth: 0}
				fwdMat[k] = m
				fwdFrontier = append(fwdFrontier, k)
			}
			return
		}
		for p := start; p < n; p++ {
			comb[idx] = p
			seed(p+1, idx+1)
		}
	}
	seed(0, 0)

	bwd[targetKey] = edge{parent: "", p: -1, q: -1, depth: 0}
	bwdMat[targetKey] = c.Hx.SpanBasis()
	bwdFrontier = append(bwdFrontier, targetKey)

	if _, ok := fwd[targetKey]; ok {
		return refAssemble(c, fwdMat[targetKey]), nil
	}

	meet := ""
	best := int(^uint(0) >> 1)
	fwdDepth, bwdDepth := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(fwdFrontier) == 0 || len(bwdFrontier) == 0 {
			break
		}
		if fwdDepth+bwdDepth+1 >= best {
			break
		}
		if len(fwd) > maxStates || len(bwd) > maxStates {
			if meet == "" {
				return nil, nil
			}
			break
		}
		expandFwd := len(fwdFrontier) <= len(bwdFrontier)
		var frontier *[]string
		this, thisMat := fwd, fwdMat
		other := bwd
		depth := fwdDepth + 1
		if expandFwd {
			frontier = &fwdFrontier
			fwdDepth++
		} else {
			frontier = &bwdFrontier
			this, thisMat = bwd, bwdMat
			other = fwd
			depth = bwdDepth + 1
			bwdDepth++
		}
		var next []string
		for _, key := range *frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(this) > maxStates {
				if meet == "" {
					return nil, nil
				}
				break
			}
			m := thisMat[key]
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p == q {
						continue
					}
					nm := refApplyColOp(m, p, q)
					nk := refCanonKey(nm)
					if _, seen := this[nk]; seen {
						continue
					}
					this[nk] = edge{parent: key, p: p, q: q, depth: depth}
					thisMat[nk] = nm
					next = append(next, nk)
					if o, hit := other[nk]; hit {
						if total := depth + o.depth; total < best {
							best = total
							meet = nk
						}
					}
				}
			}
		}
		*frontier = next
	}
	if meet == "" {
		return nil, nil
	}

	type colop struct{ p, q int }
	var fops []colop
	for k := meet; ; {
		e := fwd[k]
		if e.p < 0 {
			break
		}
		fops = append(fops, colop{e.p, e.q})
		k = e.parent
	}
	for i, j := 0, len(fops)-1; i < j; i, j = i+1, j-1 {
		fops[i], fops[j] = fops[j], fops[i]
	}
	var bops []colop
	for k := meet; ; {
		e := bwd[k]
		if e.p < 0 {
			break
		}
		bops = append(bops, colop{e.p, e.q})
		k = e.parent
	}
	ops := append(fops, bops...)

	rootKey := meet
	for {
		e := fwd[rootKey]
		if e.p < 0 {
			break
		}
		rootKey = e.parent
	}
	circ := refAssemble(c, fwdMat[rootKey])
	for _, o := range ops {
		circ.AppendCNOT(o.p, o.q)
	}
	return circ, nil
}

func refAssemble(c *code.CSS, start *f2.Mat) *circuit.Circuit {
	isPivot := make([]bool, c.N)
	for i := 0; i < start.Rows(); i++ {
		isPivot[start.Row(i).Support()[0]] = true
	}
	circ := circuit.New(c.N)
	for q := 0; q < c.N; q++ {
		if isPivot[q] {
			circ.AppendPrepX(q)
		} else {
			circ.AppendPrepZ(q)
		}
	}
	return circ
}

func refApplyColOp(m *f2.Mat, p, q int) *f2.Mat {
	nm := m.Clone()
	for r := 0; r < nm.Rows(); r++ {
		if nm.Row(r).Get(p) {
			nm.Row(r).Flip(q)
		}
	}
	return nm
}

func refCanonKey(m *f2.Mat) string {
	red := m.SpanBasis()
	keys := make([]string, red.Rows())
	for i := 0; i < red.Rows(); i++ {
		keys[i] = red.Row(i).String()
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k
	}
	return out
}
