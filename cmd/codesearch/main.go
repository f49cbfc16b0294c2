// Command codesearch discovers CSS codes with prescribed [[n,k,d]]
// parameters by random sampling or hill climbing, with exact distance
// certification. The first two usage lines found the catalog's [[11,1,3]]
// and [[16,2,4]] stand-ins, whose originals' generators are not public
// (README.md, "Codes in the catalog"). It is a thin flag wrapper over
// dftsp.Search; the printed Hx/Hz rows feed directly into
// `dftsp -hx ... -hz ...` or the server's "hx"/"hz" options.
//
// Usage:
//
//	codesearch -n 11 -k 1 -d 3 -selfdual -climb -minstab 3 -seed 9
//	codesearch -n 16 -k 2 -d 4 -selfdual -climb -seed 2
//	codesearch -n 11 -k 1 -d 3 -rx 5
//	codesearch -n 16 -k 2 -d 4 -rx 7 -gauge-tesseract
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/dftsp"
)

func main() {
	var (
		n        = flag.Int("n", 12, "physical qubits")
		k        = flag.Int("k", 2, "logical qubits")
		d        = flag.Int("d", 4, "required distance")
		rx       = flag.Int("rx", 0, "rank of Hx (non-self-dual search)")
		selfDual = flag.Bool("selfdual", false, "require Hx = Hz")
		seed     = flag.Int64("seed", 1, "search seed")
		tries    = flag.Int("tries", 500000, "candidate budget")
		gaugeTss = flag.Bool("gauge-tesseract", false, "search gauge fixings of the tesseract code instead of random sampling")
		climb    = flag.Bool("climb", false, "hill-climbing search (for hard instances like [[12,2,4]])")
		shorten  = flag.Bool("shorten-tesseract", false, "brute-force shortenings of the tesseract code down to the target n,k,d")
		minStab  = flag.Int("minstab", 2, "reject codes with stabilizer-span elements lighter than this")
	)
	flag.Parse()

	mode := dftsp.SearchRandom
	switch {
	case *shorten:
		mode = dftsp.SearchShortenTesseract
	case *gaugeTss:
		mode = dftsp.SearchGaugeTesseract
	case *climb:
		mode = dftsp.SearchClimb
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fc, err := dftsp.Search(ctx, dftsp.SearchOptions{
		N: *n, K: *k, D: *d, RankX: *rx, SelfDual: *selfDual,
		Mode: mode, MaxTries: *tries, Seed: *seed, MinStabWeight: *minStab,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "codesearch:", err)
		os.Exit(1)
	}
	fmt.Printf("found %s  (dX=%d dZ=%d)\n", fc.Params, fc.DX, fc.DZ)
	fmt.Println("Hx:")
	for _, row := range fc.Hx {
		fmt.Printf("\t%q,\n", row)
	}
	fmt.Println("Hz:")
	for _, row := range fc.Hz {
		fmt.Printf("\t%q,\n", row)
	}
}
