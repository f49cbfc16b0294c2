package dftsp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// RegisterFlags binds the synthesis-method fields of o to fs, each flag
// named after its field's JSON tag with '_' replaced by '-' and defaulting
// to o's current value. The code source stays with each command.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Prep, "prep", o.Prep, "preparation synthesis: heu (heuristic) or opt (exact minimum-CNOT search) (empty: heu)")
	fs.StringVar(&o.Verif, "verif", o.Verif, "verification synthesis: opt (one optimal verification per layer) or global (best of the optimal ones) (empty: opt)")
	fs.IntVar(&o.PrepBudget, "prep-budget", o.PrepBudget, "states per direction of the optimal preparation search (0: the default and maximum, 400000)")
	fs.IntVar(&o.GlobalLimit, "global-limit", o.GlobalLimit, "optimal verifications explored per layer by -verif global (0: 16)")
	fs.BoolVar(&o.FlagAll, "flag-all", o.FlagAll, "force a flag on every verification measurement of weight >= 3")
}

// RegisterFlags binds every field of eo to fs, each flag named after its
// field's JSON tag with '_' replaced by '-' and defaulting to eo's current
// value, so a command line accepts what an /estimate or /jobs body does.
func (eo *EstimateOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.Var((*rateList)(&eo.Rates), "rates", "comma-separated `list` of physical error rates (none: the paper's Fig. 4 grid)")
	fs.IntVar(&eo.MaxOrder, "max-order", eo.MaxOrder, "highest stratified fault order (0: 3; a job ignores it)")
	fs.IntVar(&eo.Samples, "samples", eo.Samples, "samples per sampled fault order (0: 20000; a job ignores it)")
	fs.IntVar(&eo.MCShots, "mc-shots", eo.MCShots, "if > 0, a fixed-budget Monte-Carlo cross-check with this many shots per rate")
	fs.Float64Var(&eo.MCMinRate, "mc-min-rate", eo.MCMinRate, "sample only rates >= this (0: every rate, or >= 1e-2 for adaptive direct sampling; a job ignores it)")
	fs.StringVar(&eo.Method, "method", eo.Method, "Monte-Carlo method: auto, direct or rare (empty: auto)")
	fs.Float64Var(&eo.TargetRSE, "target-rse", eo.TargetRSE, "if > 0, sample each rate adaptively until this relative standard error")
	fs.IntVar(&eo.MaxShots, "max-shots", eo.MaxShots, "adaptive sampling cap per rate (0: 10,000,000)")
	fs.Int64Var(&eo.Seed, "seed", eo.Seed, "sampling seed (0: 1)")
	fs.IntVar(&eo.Workers, "workers", eo.Workers, "Monte-Carlo worker count (0: DFTSP_WORKERS or the CPU count)")
	fs.Float64Var(&eo.Bias2Q, "bias-2q", eo.Bias2Q, "two-qubit fault rate multiplier relative to the one-qubit rate (0: 1)")
	fs.Float64Var(&eo.BiasMeas, "bias-meas", eo.BiasMeas, "measurement flip rate multiplier relative to the one-qubit rate (0: 1)")
	fs.Float64Var(&eo.Eta, "eta", eo.Eta, "two-qubit fault menu Z bias: weight eta per pure-Z slot (0: 1)")
}

// rateList is the flag.Value of -rates: a comma-separated list of physical
// error rates. Each Set replaces the list; an empty string empties it.
type rateList []float64

func (r *rateList) String() string {
	s := make([]string, len(*r))
	for i, p := range *r {
		s[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	return strings.Join(s, ",")
}

func (r *rateList) Set(s string) error {
	*r = nil
	if s == "" {
		return nil
	}
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad rate %q: %v", f, err)
		}
		*r = append(*r, p)
	}
	return nil
}
