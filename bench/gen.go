package main

import (
	"math/rand"
	"strings"

	"repro/dftsp"
	"repro/internal/code"
)

// The five workloads, in the order a full run drives them.
var workloadNames = []string{"synth-cold", "synth-hit", "estimate", "jobs-local", "jobs-fleet"}

// tableOptions are the 13 /synthesize option sets of the Table I path: the
// catalog codes except Tesseract (whose synthesis takes minutes) with the
// paper's defaults, the optimal-preparation variant of the two codes where
// it is affordable, and the global verification variant of three codes.
var tableOptions = []dftsp.Options{
	{Code: "Steane"}, {Code: "Shor"}, {Code: "Surface"}, {Code: "[[11,1,3]]"},
	{Code: "Tetrahedral"}, {Code: "Hamming"}, {Code: "Carbon"}, {Code: "[[16,2,4]]"},
	{Code: "Steane", Prep: dftsp.PrepOptimal}, {Code: "Shor", Prep: dftsp.PrepOptimal},
	{Code: "Steane", Verif: dftsp.VerifGlobal}, {Code: "Shor", Verif: dftsp.VerifGlobal},
	{Code: "Surface", Verif: dftsp.VerifGlobal},
}

// workloadSet fixes what the generated traffic draws from. The benchmark
// always runs fullSet; the package's smoke test runs a cheap subset.
type workloadSet struct {
	// options are the synthesis option sets of synth-cold and synth-hit;
	// the fixture store holds exactly these protocols.
	options []dftsp.Options

	// estimateCodes are the codes of the estimate workload and jobCodes
	// those of the job workloads; each must be among options with default
	// settings.
	estimateCodes []string
	jobCodes      []string
}

var fullSet = workloadSet{
	options:       tableOptions,
	estimateCodes: []string{"Steane", "Surface", "Carbon"},
	jobCodes:      []string{"Steane", "Surface"},
}

// label names an option set for reports and the Table I golden file.
func label(o dftsp.Options) string {
	s := o.Code
	if o.Prep != "" {
		s += " prep=" + o.Prep
	}
	if o.Verif != "" {
		s += " verif=" + o.Verif
	}
	return s
}

// rng returns the generator of one seeded stream. Each stream (workload,
// round, client) mixes its own salt into the seed, so streams are
// independent and every one is reproducible from -seed alone.
func rng(seed int64, salt ...int64) *rand.Rand {
	s := seed
	for _, v := range salt {
		s = s*1_000_003 + v
	}
	return rand.New(rand.NewSource(s))
}

const (
	saltCold = iota + 1
	saltHit
	saltEstimate
)

// coldOrder is the seeded order in which a synth-cold round requests the
// option sets.
func coldOrder(seed int64, round, n int) []int {
	return rng(seed, saltCold, int64(round)).Perm(n)
}

// synthesizeRequest is the /synthesize body: options inlined, plus the
// QASM export switch.
type synthesizeRequest struct {
	dftsp.Options
	QASM bool `json:"qasm,omitempty"`
}

// hitRequest is one generated synth-hit request and the option set it
// names.
type hitRequest struct {
	body   synthesizeRequest
	option int
}

// spellings returns the relaxed spellings of a catalog name that the
// service canonicalizes onto one cache key.
func spellings(name string) []string {
	return []string{name, strings.ToLower(name), strings.ToUpper(name), code.Slug(name)}
}

// hitStream generates one round of n synth-hit requests for one client: a
// seeded option set, a seeded relaxed spelling of its code, and QASM export
// on 10% of requests.
func hitStream(seed int64, client, round, n int, options []dftsp.Options) []hitRequest {
	r := rng(seed, saltHit, int64(client), int64(round))
	out := make([]hitRequest, n)
	for i := range out {
		k := r.Intn(len(options))
		opt := options[k]
		sp := spellings(opt.Code)
		opt.Code = sp[r.Intn(len(sp))]
		out[i] = hitRequest{body: synthesizeRequest{Options: opt, QASM: r.Intn(10) == 0}, option: k}
	}
	return out
}

// estimateRequest is the /estimate and /jobs body.
type estimateRequest struct {
	Options  dftsp.Options         `json:"options"`
	Estimate dftsp.EstimateOptions `json:"estimate"`
}

// estimateRound generates one round of the estimate workload: for every
// code, direct sampling at p = 2e-2 and 1e-2 to 2% RSE, rare-event sampling
// at p = 1e-4 to 5% RSE, and a stratified-only request over the default
// Fig. 4 grid — in a seeded order, under the round's own sampling seed.
func estimateRound(seed int64, round int, codes []string) []estimateRequest {
	r := rng(seed, saltEstimate, int64(round))
	sampleSeed := r.Int63n(1<<40) + 1
	var out []estimateRequest
	for _, c := range codes {
		opts := dftsp.Options{Code: c}
		out = append(out,
			estimateRequest{opts, dftsp.EstimateOptions{Rates: []float64{2e-2, 1e-2}, Method: "direct", TargetRSE: 0.02, Seed: sampleSeed}},
			estimateRequest{opts, dftsp.EstimateOptions{Rates: []float64{1e-4}, Method: "rare", TargetRSE: 0.05, Seed: sampleSeed}},
			estimateRequest{opts, dftsp.EstimateOptions{Seed: sampleSeed}},
		)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jobShots is the fixed per-point budget of a generated job: 2^22 shots,
// 128 checkpointed shards per point.
const jobShots = 1 << 22

// jobRates are a job's points. The low rates make shards cheap, so the
// per-shard checkpoint and dispatch cost shows next to the sampling.
var jobRates = []float64{1e-2, 3e-3, 1e-3}

// jobRequest generates the j-th job of a run: the job codes in turn, so
// every round holds one job of each, direct sampling at fixed budget over
// jobRates, and a seed distinct from every other job of the run (jobs are
// content-addressed; equal specs would collapse into one).
func jobRequest(seed int64, j int, codes []string) estimateRequest {
	return estimateRequest{
		Options: dftsp.Options{Code: codes[j%len(codes)]},
		Estimate: dftsp.EstimateOptions{
			Rates: jobRates, Method: "direct", MCShots: jobShots,
			Seed: seed<<24 + int64(j) + 1,
		},
	}
}
