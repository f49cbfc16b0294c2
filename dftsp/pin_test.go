package dftsp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/store"
)

// TestProtocolBytesPinned pins the stored bytes of default-option protocols
// and of the two "Opt"-encoder protocols of Table I.
// Correction synthesis may get faster, but a change in which measurements or
// recoveries it picks moves the simulated logical error rates (up to +30%
// for Surface at p = 1e-2 with another optimal choice), so it must show
// here as a deliberate hash update.
func TestProtocolBytesPinned(t *testing.T) {
	for _, tc := range []struct{ code, prep, sha string }{
		{"Steane", "", "1bf1f2a5b01d0d9a1fc77a35c44840f5ed7917129086a6b746be0f8acf6ff5e1"},
		{"Shor", "", "64c0f340a5ee3fa7dd52f3b63c19ef67b9633f48d3b3b3963c4915bf8204e5ee"},
		{"Surface", "", "430221b87c2bfaba79af06019502e0e9cc711f9497cd661ba7884c6500115474"},
		{"[[11,1,3]]", "", "10011e7d4ea02acc0ff9f2dbcd19ed0dfa331f13cf4f5c3d3c2c3f8dfa977bc1"},
		{"Carbon", "", "f2bedd31bec0505f431533bdb45b1d73ab6c685cbc49a995bcefae779e8b3348"},
		{"[[16,2,4]]", "", "ca27dbfe8318913924e1534ac8cc7965caa1f69cb5cb5bba09413a79ee5f8927"},
		{"Steane", PrepOptimal, "f21b64d4a55e3b3de3818706693f53ee00b59e708bb249d64485d07637a4fc09"},
		{"Shor", PrepOptimal, "b172d94ef48f7b429f1cd9ef7b65f4c4f15aa57f76c4c91c4b61a469bd58618f"},
	} {
		p, err := Synthesize(bg, Options{Code: tc.code, Prep: tc.prep})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.code, tc.prep, err)
		}
		data, err := store.Encode(store.Meta{Key: "k"}, p.Core)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.code, tc.prep, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s %s: stored protocol SHA-256 %s, want %s", tc.code, tc.prep, got, tc.sha)
		}
	}
}
