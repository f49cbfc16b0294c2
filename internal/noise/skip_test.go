package noise

import (
	"math"
	"testing"
)

// refGeomSkip is the geometric draw as it was before the guide tables: the
// float expression on RNG output x for the exponent invLog = 1/log(1-p),
// saturating at maxSkip. Every table draw must equal it.
func refGeomSkip(x uint64, invLog float64) uint64 {
	g := math.Log(float64(x>>11+1)/(1<<53)) * invLog
	if g >= maxSkip {
		return maxSkip
	}
	return uint64(g)
}

// skipRates spans the chain rates the samplers meet, 0.1 down to 1e-5.
var skipRates = []float64{0.1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5}

// TestSkipTableExact holds every skipTable draw to the plain expression:
// at seven rates from 0.1 to 1e-5, both end values of every bucket (and
// the values next to them), then 2·10^7 consecutive draws of one SplitMix64
// stream through geomSkip against the expression on a second copy of the
// stream (2·10^6 under -short). A fallback bucket's lower bound must not
// exceed the expression at any of those outputs. It logs each rate's
// fallback share.
func TestSkipTableExact(t *testing.T) {
	draws := 20_000_000
	if testing.Short() {
		draws = 2_000_000
	}
	for _, p := range skipRates {
		tab := newSkipTable(p)
		invLog := 1 / math.Log1p(-p)
		if tab.invLog != invLog {
			t.Fatalf("p=%g: table exponent %v, want %v", p, tab.invLog, invLog)
		}
		const width = uint64(1) << (64 - skipBits)
		misses := 0
		for b := range tab.gap {
			lo := uint64(b) * width
			hi := lo + width - 1
			for _, x := range []uint64{lo, lo + 1<<11, hi - 1<<11, hi} {
				if got, want := tab.draw(x), refGeomSkip(x, invLog); got != want {
					t.Fatalf("p=%g bucket %d x=%#x: table %d, expression %d", p, b, x, got, want)
				}
				checkSkipFloor(t, tab, x, p)
			}
			if tab.gap[b]&skipMiss != 0 {
				misses++
			}
		}
		a, r := SplitMix64{State: uint64(p * 1e9)}, SplitMix64{State: uint64(p * 1e9)}
		for i := 0; i < draws; i++ {
			x := r.Next()
			if got, want := geomSkip(&a, tab), refGeomSkip(x, invLog); got != want {
				t.Fatalf("p=%g draw %d: table %d, expression %d", p, i, got, want)
			}
			checkSkipFloor(t, tab, x, p)
		}
		t.Logf("p=%g: %.1f%% of buckets fall back", p, 100*float64(misses)/float64(len(tab.gap)))
	}
}

// checkSkipFloor fails t when x's bucket falls back with a lower bound
// above the expression's gap at x.
func checkSkipFloor(t *testing.T, tab *skipTable, x uint64, p float64) {
	t.Helper()
	if g := tab.gap[x>>(64-skipBits)]; g&skipMiss != 0 && uint64(g&^skipMiss) > tab.expr(x) {
		t.Fatalf("p=%g x=%#x: bucket lower bound %d above the gap %d", p, x, g&^skipMiss, tab.expr(x))
	}
}

// TestSkipTableZeroRate pins the zero-rate table: exponent 0 and every
// bucket falling back with lower bound 0, so its draws are the
// expression's (zero) too.
func TestSkipTableZeroRate(t *testing.T) {
	tab := newSkipTable(0)
	for b, g := range tab.gap {
		if g != skipMiss {
			t.Fatalf("bucket %d holds %#x, want a fallback with lower bound 0", b, g)
		}
	}
	for _, x := range []uint64{0, 1 << 40, ^uint64(0)} {
		if got, want := tab.draw(x), refGeomSkip(x, 0); got != want {
			t.Fatalf("x=%#x: table %d, expression %d", x, got, want)
		}
	}
}

// TestSkipsShared checks the cache the samplers share: one table per rate,
// shared by per-class chains of equal rate and by every sampler built over
// the cache; a nil cache builds a private table per sampler; and past
// maxSkipTables rates the cache starts over instead of growing.
func TestSkipsShared(t *testing.T) {
	var sk Skips
	if sk.table(1e-2) != sk.table(1e-2) || sk.table(1e-2) == sk.table(2e-2) {
		t.Fatal("Skips must return one table per rate")
	}
	m := Model{P1Q: 1e-2, P2Q: 2e-2, PMeas: 1e-2, Eta: 1}
	s := NewSparseSamplerModel(m, 1, &sk)
	c := NewCondSamplerModel(m, []LocKind{Loc1Q, Loc2Q, LocMeas}, 1, &sk)
	for _, tabs := range [][3]*skipTable{{s.ch[0].tab, s.ch[1].tab, s.ch[2].tab}, c.law.tab} {
		if tabs[0] != sk.table(1e-2) || tabs[1] != sk.table(2e-2) || tabs[2] != tabs[0] {
			t.Fatal("samplers over one Skips must share its tables")
		}
	}
	if NewSparseSampler(1e-2, 1).ch[0].tab == NewSparseSampler(1e-2, 1).ch[0].tab {
		t.Fatal("a nil Skips must build a private table per sampler")
	}
	if z := NewSparseSamplerModel(Model{P1Q: 0, P2Q: 1e-2, PMeas: 0, Eta: 1}, 1, &sk); z.ch[0].tab != nil || z.ch[2].tab != nil {
		t.Fatal("a zero-rate chain must not get a table")
	}
	for i := 0; i <= 2*maxSkipTables; i++ {
		sk.table(float64(i+1) * 1e-4)
		if len(sk.tabs) > maxSkipTables {
			t.Fatalf("cache holds %d tables, want at most %d", len(sk.tabs), maxSkipTables)
		}
	}
}

// FuzzGeomSkip checks the table draw against the expression for any RNG
// output x and any rate p in (0, 1), at x itself and at both ends of x's
// bucket, and a fallback bucket's lower bound against the expression at
// the same outputs; other rates are skipped. The seeded corpus runs as unit tests;
// `go test -fuzz=FuzzGeomSkip ./internal/noise` explores further.
func FuzzGeomSkip(f *testing.F) {
	f.Add(uint64(0), 0.5)
	f.Add(^uint64(0), 1e-3)
	f.Add(uint64(1)<<63, 1e-2)
	f.Add(uint64(0x9E3779B97F4A7C15), 3e-3)
	f.Add(uint64(1)<<52-1, 1e-5)
	f.Add(uint64(12345), 0.999999)
	f.Add(uint64(1)<<40, 1e-300)
	f.Add(uint64(7)<<60, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, x uint64, p float64) {
		if !(p > 0 && p < 1) {
			return
		}
		tab := newSkipTable(p)
		invLog := 1 / math.Log1p(-p)
		const width = uint64(1) << (64 - skipBits)
		lo := x &^ (width - 1)
		for _, y := range []uint64{x, lo, lo + width - 1} {
			got, want := tab.draw(y), refGeomSkip(y, invLog)
			if got != want {
				t.Fatalf("p=%g x=%#x: table %d, expression %d", p, y, got, want)
			}
			checkSkipFloor(t, tab, y, p)
		}
		rng := SplitMix64{State: x}
		if got, want := geomSkip(&rng, tab), refGeomSkip((&SplitMix64{State: x}).Next(), invLog); got != want {
			t.Fatalf("p=%g seed %#x: geomSkip %d, expression %d", p, x, got, want)
		}
	})
}
