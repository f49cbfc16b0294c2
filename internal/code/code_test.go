package code

import (
	"context"
	"testing"

	"repro/internal/f2"
)

func TestSteaneParameters(t *testing.T) {
	c := Steane()
	if c.N != 7 || c.K != 1 {
		t.Fatalf("Steane n,k = %d,%d", c.N, c.K)
	}
	if d := c.Distance(); d != 3 {
		t.Fatalf("Steane distance = %d, want 3", d)
	}
	if c.DistanceX() != 3 || c.DistanceZ() != 3 {
		t.Fatalf("Steane dX,dZ = %d,%d", c.DistanceX(), c.DistanceZ())
	}
}

func TestCatalogParameters(t *testing.T) {
	want := map[string][3]int{
		"Steane":      {7, 1, 3},
		"Shor":        {9, 1, 3},
		"Surface":     {9, 1, 3},
		"[[11,1,3]]":  {11, 1, 3},
		"Tetrahedral": {15, 1, 3},
		"Hamming":     {15, 7, 3},
		"Carbon":      {12, 2, 4},
		"[[16,2,4]]":  {16, 2, 4},
		"Tesseract":   {16, 6, 4},
	}
	for _, c := range Catalog() {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected catalog entry %q", c.Name)
			continue
		}
		if c.N != w[0] || c.K != w[1] {
			t.Errorf("%s: n,k = %d,%d, want %d,%d", c.Name, c.N, c.K, w[0], w[1])
		}
		if d := c.Distance(); d != w[2] {
			t.Errorf("%s: distance = %d, want %d", c.Name, d, w[2])
		}
	}
}

// TestEntriesMatchCatalog holds the static [[n,k,d]] column of Entries
// equal to the codes Catalog builds, so listing the catalog can skip
// building it.
func TestEntriesMatchCatalog(t *testing.T) {
	entries, codes := Entries(), Catalog()
	if len(entries) != len(codes) {
		t.Fatalf("%d entries for %d codes", len(entries), len(codes))
	}
	for i, c := range codes {
		want := Entry{c.Name, c.N, c.K, c.Distance()}
		if entries[i] != want {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], want)
		}
	}
}

func TestCatalogCSSCondition(t *testing.T) {
	for _, c := range Catalog() {
		for i := 0; i < c.Hx.Rows(); i++ {
			for j := 0; j < c.Hz.Rows(); j++ {
				if c.Hx.Row(i).Dot(c.Hz.Row(j)) != 0 {
					t.Errorf("%s: Hx[%d] anticommutes with Hz[%d]", c.Name, i, j)
				}
			}
		}
	}
}

func TestLogicalOperatorAlgebra(t *testing.T) {
	for _, c := range Catalog() {
		// Logicals commute with all stabilizers of opposite type.
		for i := 0; i < c.Lz.Rows(); i++ {
			for j := 0; j < c.Hx.Rows(); j++ {
				if c.Lz.Row(i).Dot(c.Hx.Row(j)) != 0 {
					t.Errorf("%s: Lz[%d] anticommutes with Hx[%d]", c.Name, i, j)
				}
			}
		}
		for i := 0; i < c.Lx.Rows(); i++ {
			for j := 0; j < c.Hz.Rows(); j++ {
				if c.Lx.Row(i).Dot(c.Hz.Row(j)) != 0 {
					t.Errorf("%s: Lx[%d] anticommutes with Hz[%d]", c.Name, i, j)
				}
			}
		}
		// Logicals are not stabilizers.
		for i := 0; i < c.Lz.Rows(); i++ {
			if c.Hz.InSpan(c.Lz.Row(i)) {
				t.Errorf("%s: Lz[%d] is in the Z-stabilizer span", c.Name, i)
			}
		}
		for i := 0; i < c.Lx.Rows(); i++ {
			if c.Hx.InSpan(c.Lx.Row(i)) {
				t.Errorf("%s: Lx[%d] is in the X-stabilizer span", c.Name, i)
			}
		}
		// The symplectic pairing matrix Lx·Lzᵀ must be full rank so the
		// logicals really span k independent qubits.
		pair := f2.NewMat(c.Lz.Rows())
		for i := 0; i < c.Lx.Rows(); i++ {
			row := f2.NewVec(c.Lz.Rows())
			for j := 0; j < c.Lz.Rows(); j++ {
				if c.Lx.Row(i).Dot(c.Lz.Row(j)) == 1 {
					row.Set(j, true)
				}
			}
			pair.MustAppendRow(row)
		}
		if pair.Rank() != c.K {
			t.Errorf("%s: logical pairing rank %d, want %d", c.Name, pair.Rank(), c.K)
		}
	}
}

func TestSteanePaperLogicals(t *testing.T) {
	// The paper's representatives X_L = X3X4X7, Z_L = Z1Z2Z3 must be
	// valid logicals of our Steane instance (equivalent modulo
	// stabilizers to our computed basis).
	c := Steane()
	xl := f2.FromSupport(7, 2, 3, 6)
	zl := f2.FromSupport(7, 0, 1, 2)
	for j := 0; j < c.Hz.Rows(); j++ {
		if xl.Dot(c.Hz.Row(j)) != 0 {
			t.Fatal("paper X_L anticommutes with a Z stabilizer")
		}
	}
	for j := 0; j < c.Hx.Rows(); j++ {
		if zl.Dot(c.Hx.Row(j)) != 0 {
			t.Fatal("paper Z_L anticommutes with an X stabilizer")
		}
	}
	if c.Hx.InSpan(xl) || c.Hz.InSpan(zl) {
		t.Fatal("paper logicals are stabilizers?")
	}
	if xl.Dot(zl) != 1 {
		t.Fatal("paper logicals should anticommute")
	}
}

func TestRotatedSurfaceScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("distance certification of d=5 takes a few seconds")
	}
	c := RotatedSurface(5)
	if c.N != 25 || c.K != 1 {
		t.Fatalf("d=5 surface: n,k = %d,%d", c.N, c.K)
	}
	if d := c.Distance(); d != 5 {
		t.Fatalf("d=5 surface distance = %d", d)
	}
}

func TestZStabilizerGroupContainsLogicals(t *testing.T) {
	c := Steane()
	g := c.ZStabilizerGroup()
	if g.Rows() != c.Hz.Rows()+c.K {
		t.Fatalf("group has %d generators", g.Rows())
	}
	if !g.InSpan(c.Lz.Row(0)) {
		t.Fatal("Z_L missing from |0>_L stabilizer group")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	hx := f2.MustMatFromStrings("1100")
	hz := f2.MustMatFromStrings("1000") // overlap 1: anticommutes
	if _, err := New("bad", hx, hz); err == nil {
		t.Fatal("expected CSS violation error")
	}
	hz2 := f2.MustMatFromStrings("11000") // wrong length
	if _, err := New("bad2", hx, hz2); err == nil {
		t.Fatal("expected column mismatch error")
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("Steane")
	if err != nil || c.Name != "Steane" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown code")
	}
}

func TestSearchFindsSmallCode(t *testing.T) {
	// The search machinery should find a [[5,1,2]]-or-better CSS code
	// quickly; use [[4,1,2]]-style parameters that exist ([[4,2,2]] with
	// k=2, d=2).
	c := Search(context.Background(), SearchOptions{N: 4, K: 2, D: 2, RankX: 1, MaxTries: 200000, Seed: 1})
	if c == nil {
		t.Fatal("search failed to find [[4,2,2]]")
	}
	if c.K != 2 || c.DistanceX() < 2 || c.DistanceZ() < 2 {
		t.Fatalf("search returned %s", c.Params())
	}
}

// TestSelfDualSearchPinned pins the codes a fixed-seed self-dual Search
// returns, recorded before the search drew its self-orthogonal subspaces
// through randomSelfOrthogonal: the draws, and so the codes, must not move.
func TestSelfDualSearchPinned(t *testing.T) {
	for _, tc := range []struct {
		opt  SearchOptions
		name string
		g    []string
	}{
		{SearchOptions{N: 7, K: 1, D: 3, SelfDual: true, MaxTries: 200000, Seed: 1}, "search-sd-7", []string{"1001110", "0100111", "0011101"}},
		{SearchOptions{N: 7, K: 1, D: 3, SelfDual: true, MaxTries: 200000, Seed: 7}, "search-sd-7", []string{"1010011", "0110110", "0001111"}},
		{SearchOptions{N: 4, K: 2, D: 2, SelfDual: true, MaxTries: 50000, Seed: 1}, "search-sd-4", []string{"1111"}},
	} {
		c := Search(context.Background(), tc.opt)
		if c == nil {
			t.Fatalf("%+v: no code found", tc.opt)
		}
		want := f2.MustMatFromStrings(tc.g...)
		if c.Name != tc.name || c.Hx.String() != want.String() || c.Hz.String() != want.String() {
			t.Fatalf("%+v: got %s with Hx\n%v\nHz\n%v\nwant %s with G\n%v", tc.opt, c.Name, c.Hx, c.Hz, tc.name, want)
		}
	}
	// N-K odd admits no self-dual code.
	if c := Search(context.Background(), SearchOptions{N: 6, K: 1, D: 2, SelfDual: true, MaxTries: 100}); c != nil {
		t.Fatalf("self-dual search with N-K odd returned %s", c.Params())
	}
}

// TestSearchedRowsReproduce reruns the codesearch commands searched.go
// records as the origins of css11Rows and css16Rows, with the CLI's
// defaults where a command gives no flag (500000 tries, minimum stabilizer
// weight 2): SearchSelfDualClimb must return exactly the recorded rows.
func TestSearchedRowsReproduce(t *testing.T) {
	for _, tc := range []struct {
		opt  SearchOptions
		rows []string
	}{
		{SearchOptions{N: 11, K: 1, D: 3, SelfDual: true, MaxTries: 500000, Seed: 9, MinStabWeight: 3}, css11Rows},
		{SearchOptions{N: 16, K: 2, D: 4, SelfDual: true, MaxTries: 500000, Seed: 2, MinStabWeight: 2}, css16Rows},
	} {
		c := SearchSelfDualClimb(context.Background(), tc.opt)
		if c == nil {
			t.Fatalf("%+v: no code found", tc.opt)
		}
		want := f2.MustMatFromStrings(tc.rows...)
		if c.Hx.String() != want.String() || c.Hz.String() != want.String() {
			t.Fatalf("%+v: got Hx\n%v\nHz\n%v\nwant\n%v", tc.opt, c.Hx, c.Hz, want)
		}
	}
}

func TestGaugeFix(t *testing.T) {
	base := Tesseract()
	c, err := GaugeFix(base, "gf", []int{0}, []int{1})
	if err != nil {
		// The chosen logicals may anticommute; pick a commuting pair.
		var found bool
		for i := 0; i < base.K && !found; i++ {
			for j := 0; j < base.K && !found; j++ {
				if c2, err2 := GaugeFix(base, "gf", []int{i}, []int{j}); err2 == nil {
					c, found = c2, true
				}
			}
		}
		if !found {
			t.Fatal("no commuting gauge fixing found")
		}
	}
	if c.K != base.K-2 {
		t.Fatalf("gauge fixing k = %d, want %d", c.K, base.K-2)
	}
}
