package dftsp

import (
	"errors"
	"strings"
	"testing"
)

// memoCounts reads the service's dftsp_correction_memo_total series.
func memoCounts(s *Service) (hit, miss uint64) {
	v := s.reg.CounterVec("dftsp_correction_memo_total", "", "result")
	return v.With("hit").Value(), v.With("miss").Value()
}

// TestServiceMemoPinsHammingAfterTetrahedral synthesizes Tetrahedral and
// then Hamming on one service. Both prepare the same 15-qubit |0>_L, so
// their one correction problem is the same; the second build takes it from
// the service's correction memo, and both protocols keep their pinned
// bytes.
func TestServiceMemoPinsHammingAfterTetrahedral(t *testing.T) {
	s := NewService(1)
	for _, name := range []string{"Tetrahedral", "Hamming"} {
		p, hit, err := s.Protocol(bg, Options{Code: name})
		if err != nil || hit {
			t.Fatalf("%s: cache hit %v, error %v; want a synthesis", name, hit, err)
		}
		checkPinned(t, p, name)
	}
	if hit, miss := memoCounts(s); hit != 1 || miss != 1 {
		t.Fatalf("correction memo: %d hits, %d misses; want 1, 1", hit, miss)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("service cache: %d misses, %d hits; a memo-assisted synthesis is still a miss", st.Misses, st.Hits)
	}
}

// TestSynthesizeRejectsSpansPastEnumerationBound checks that a custom code
// whose Z stabilizer group has more generators than f2 enumerates is bad
// options, before any synthesis: it used to panic in the coset enumeration.
func TestSynthesizeRejectsSpansPastEnumerationBound(t *testing.T) {
	_, err := Synthesize(bg, largeSpanCode())
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "2^24") {
		t.Fatalf("error %v, want ErrBadOptions naming the 2^24 bound", err)
	}
}

// largeSpanCode is a [[28,1]] custom code with hx = X0X1 and hz = Z0Z1
// plus Z2 … Z26: its Z stabilizer group (with the logical Z) has 27
// generators.
func largeSpanCode() Options {
	row := func(qs ...int) string {
		b := []byte(strings.Repeat("0", 28))
		for _, q := range qs {
			b[q] = '1'
		}
		return string(b)
	}
	o := Options{Hx: []string{row(0, 1)}, Hz: []string{row(0, 1)}}
	for q := 2; q <= 26; q++ {
		o.Hz = append(o.Hz, row(q))
	}
	return o
}
