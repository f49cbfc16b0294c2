package dftsp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// TestProtocolBytesPinned pins the stored bytes of the default-option
// protocol of every catalog code, of the two "Opt"-encoder protocols of
// Table I, and of the three globally optimized protocols the synth-cold
// benchmark builds (their candidate loop runs the correction synthesis once
// per candidate). Correction synthesis solves a build's problems on every
// spare core, so CI runs this test under the default GOMAXPROCS and under
// GOMAXPROCS=1, and both schedules must give these bytes.
// Correction synthesis may get faster, but a change in which measurements or
// recoveries it picks moves the simulated logical error rates (up to +30%
// for Surface at p = 1e-2 with another optimal choice), so it must show
// here as a deliberate hash update. Every pinned protocol must also compile
// into the batch engine, the only engine that samples.
func TestProtocolBytesPinned(t *testing.T) {
	for _, tc := range protocolPins {
		p, err := Synthesize(bg, Options{Code: tc.code, Prep: tc.prep, Verif: tc.verif})
		if err != nil {
			t.Fatalf("%s %s %s: %v", tc.code, tc.prep, tc.verif, err)
		}
		checkPinned(t, p, tc.sha)
		if _, err := sim.Compile(p.Core); err != nil {
			t.Errorf("%s %s %s: protocol does not compile: %v", tc.code, tc.prep, tc.verif, err)
		}
	}
}

// checkPinned fails the test unless p's stored bytes have the SHA-256 sum.
func checkPinned(t *testing.T, p *Protocol, sha string) {
	t.Helper()
	o := p.Options
	data, err := store.Encode(store.Meta{Key: "k"}, p.Core)
	if err != nil {
		t.Fatalf("%s %s %s: %v", o.Code, o.Prep, o.Verif, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != sha {
		t.Errorf("%s %s %s: stored protocol SHA-256 %s, want %s", o.Code, o.Prep, o.Verif, got, sha)
	}
}

// pinnedSHA returns the pinned SHA-256 of the default-option protocol of a
// catalog code.
func pinnedSHA(t *testing.T, code string) string {
	t.Helper()
	for _, tc := range protocolPins {
		if tc.code == code && tc.prep == "" && tc.verif == "" {
			return tc.sha
		}
	}
	t.Fatalf("no pin for %s", code)
	return ""
}

// protocolPins are the pinned stored bytes of TestProtocolBytesPinned.
var protocolPins = []struct{ code, prep, verif, sha string }{
	{"Steane", "", "", "1bf1f2a5b01d0d9a1fc77a35c44840f5ed7917129086a6b746be0f8acf6ff5e1"},
	{"Shor", "", "", "64c0f340a5ee3fa7dd52f3b63c19ef67b9633f48d3b3b3963c4915bf8204e5ee"},
	{"Surface", "", "", "430221b87c2bfaba79af06019502e0e9cc711f9497cd661ba7884c6500115474"},
	{"[[11,1,3]]", "", "", "10011e7d4ea02acc0ff9f2dbcd19ed0dfa331f13cf4f5c3d3c2c3f8dfa977bc1"},
	{"Carbon", "", "", "f2bedd31bec0505f431533bdb45b1d73ab6c685cbc49a995bcefae779e8b3348"},
	{"[[16,2,4]]", "", "", "ca27dbfe8318913924e1534ac8cc7965caa1f69cb5cb5bba09413a79ee5f8927"},
	{"Tetrahedral", "", "", "7f06184cc9459625bb33b4946a093c4047c805b393a82df18275d432c31c8fc9"},
	{"Hamming", "", "", "4e9882929282216bbbe2d61c5875585d1583a5709b8c25e4eaba3b47988d03ea"},
	{"Tesseract", "", "", "f5acd582f3d9d954ff1190f8bde3c49fa42614faffb8ff761bf7f6277bb43f50"},
	{"Steane", PrepOptimal, "", "f21b64d4a55e3b3de3818706693f53ee00b59e708bb249d64485d07637a4fc09"},
	{"Shor", PrepOptimal, "", "b172d94ef48f7b429f1cd9ef7b65f4c4f15aa57f76c4c91c4b61a469bd58618f"},
	{"Steane", "", VerifGlobal, "1bf1f2a5b01d0d9a1fc77a35c44840f5ed7917129086a6b746be0f8acf6ff5e1"},
	{"Shor", "", VerifGlobal, "837dbbfc8759d68db8fe6597e8e06a67e9b84e5f3ff1c62834d53fffe7d75e82"},
	{"Surface", "", VerifGlobal, "430221b87c2bfaba79af06019502e0e9cc711f9497cd661ba7884c6500115474"},
}

// TestOptionsKeyPinned pins the canonical key of relaxed catalog spellings,
// surface codes, custom codes and every synthesis option. The key is the
// content address of every stored protocol and part of every job's
// protocol key, so it must not move; the keys were recorded when Key was
// still rendered with fmt.
func TestOptionsKeyPinned(t *testing.T) {
	steane := []string{"0001111", "0110011", "1010101"}
	for _, tc := range []struct {
		opts Options
		key  string
	}{
		{Options{}, "code:Steane|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "Steane"}, "code:Steane|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "steane"}, "code:Steane|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "STEANE"}, "code:Steane|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "11-1-3"}, "code:[[11,1,3]]|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "[[11,1,3]]"}, "code:[[11,1,3]]|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "16-2-4"}, "code:[[16,2,4]]|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "tesseract"}, "code:Tesseract|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Code: "Hamming", Prep: "OPT"}, "code:Hamming|prep=opt,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{SurfaceDistance: 3}, "surface:3|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{SurfaceDistance: 5, Prep: "opt", PrepBudget: 1000}, "surface:5|prep=opt,budget=1000|verif=opt,limit=0|flagall=false"},
		{Options{Hx: steane, Hz: steane}, "custom:0001111,0110011,1010101/0001111,0110011,1010101|prep=heu,budget=0|verif=opt,limit=0|flagall=false"},
		{Options{Hx: []string{"1100", "0011"}, Hz: []string{"1111"}, Verif: "Global", GlobalLimit: 4, FlagAll: true}, "custom:1100,0011/1111|prep=heu,budget=0|verif=global,limit=4|flagall=true"},
		{Options{Code: "Shor", Prep: "opt", PrepBudget: 400000}, "code:Shor|prep=opt,budget=400000|verif=opt,limit=0|flagall=false"},
		{Options{Code: "Surface", Verif: "global", GlobalLimit: 16}, "code:Surface|prep=heu,budget=0|verif=global,limit=16|flagall=false"},
		{Options{Code: "Carbon", FlagAll: true}, "code:Carbon|prep=heu,budget=0|verif=opt,limit=0|flagall=true"},
		{Options{Code: "shor", Prep: "Opt", Verif: "GLOBAL", PrepBudget: 7, GlobalLimit: 3, FlagAll: true}, "code:Shor|prep=opt,budget=7|verif=global,limit=3|flagall=true"},
	} {
		got, err := tc.opts.Key()
		if err != nil || got != tc.key {
			t.Errorf("%+v: Key() = %q, %v; want %q", tc.opts, got, err, tc.key)
		}
	}
}
