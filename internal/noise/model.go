package noise

import (
	"fmt"
	"math"
)

// Model generalizes the single-rate E1_1 depolarizing model to per-location-
// class rates with an optional two-qubit Pauli bias: one-qubit locations,
// two-qubit (CNOT) locations and measurement flips each carry their own
// physical fault probability, and the 15-operator CNOT menu can be tilted
// toward Z-heavy faults. Uniform(p) recovers the paper's model exactly —
// every sampler in this package runs its legacy code path (bit-identical RNG
// stream) when the model is uniform, which the cross-engine equivalence
// suite pins.
type Model struct {
	// P1Q is the fault probability of one-qubit locations (preparations and
	// one-qubit gates).
	P1Q float64 `json:"p_1q"`

	// P2Q is the fault probability of two-qubit (CNOT) locations.
	P2Q float64 `json:"p_2q"`

	// PMeas is the classical measurement flip probability.
	PMeas float64 `json:"p_meas"`

	// Eta is the two-qubit Pauli bias ratio: each of the 15 non-identity
	// two-qubit operators is weighted Eta^z, where z counts the operator's
	// pure-Z tensor slots (ZI and IZ get weight Eta, ZZ gets Eta², operators
	// with only X/Y components keep weight 1). Eta == 1 is the uniform
	// depolarizing menu; Eta -> inf approaches pure dephasing ({ZI, IZ, ZZ}).
	// One-qubit menus stay uniform — the bias models two-qubit gate noise.
	Eta float64 `json:"eta"`
}

// Uniform returns the paper's single-rate model: every class at rate p and
// an unbiased (Eta = 1) operator menu.
func Uniform(p float64) Model {
	return Model{P1Q: p, P2Q: p, PMeas: p, Eta: 1}
}

// Ratio returns the ratio model a request's bias multipliers select:
// one-qubit rate 1, two-qubit rate bias2Q, measurement rate biasMeas and
// the two-qubit Z-bias eta, each 0 read as 1. Scale evaluates it at a
// physical rate; with every multiplier 0 or 1 it is Uniform(1).
func Ratio(bias2Q, biasMeas, eta float64) Model {
	m := Uniform(1)
	if bias2Q != 0 {
		m.P2Q = bias2Q
	}
	if biasMeas != 0 {
		m.PMeas = biasMeas
	}
	if eta != 0 {
		m.Eta = eta
	}
	return m
}

// CheckRatio rejects Ratio multipliers that are neither 0 (read as 1) nor
// positive and finite, naming the offending field by its request name.
func CheckRatio(bias2Q, biasMeas, eta float64) error {
	for _, b := range []struct {
		name string
		v    float64
	}{{"bias_2q", bias2Q}, {"bias_meas", biasMeas}, {"eta", eta}} {
		if b.v != 0 && !(b.v > 0 && !math.IsInf(b.v, 1)) {
			return fmt.Errorf("%s %g must be a positive finite multiplier (or 0 for 1)", b.name, b.v)
		}
	}
	return nil
}

// Scale returns the model with every class rate multiplied by p, keeping the
// bias ratio. It is how a ratio model (class rates relative to a swept
// physical rate) is evaluated at one grid point.
func (m Model) Scale(p float64) Model {
	return Model{P1Q: m.P1Q * p, P2Q: m.P2Q * p, PMeas: m.PMeas * p, Eta: m.Eta}
}

// Rate returns the fault probability of a location class.
func (m Model) Rate(kind LocKind) float64 {
	switch kind {
	case Loc1Q:
		return m.P1Q
	case Loc2Q:
		return m.P2Q
	default:
		return m.PMeas
	}
}

// MaxRate returns the largest class rate.
func (m Model) MaxRate() float64 {
	return math.Max(m.P1Q, math.Max(m.P2Q, m.PMeas))
}

// UniformRate reports whether every class shares one rate, and that rate.
// The comparison is exact: only a model whose classes are bit-equal takes
// the samplers' legacy single-chain paths.
func (m Model) UniformRate() (float64, bool) {
	if m.P1Q == m.P2Q && m.P2Q == m.PMeas {
		return m.P1Q, true
	}
	return 0, false
}

// IsUniform reports whether the model is exactly the paper's single-rate
// depolarizing model: one shared class rate and an unbiased menu.
func (m Model) IsUniform() bool {
	_, u := m.UniformRate()
	return u && m.Eta == 1
}

// CountKinds tallies a location-kind vector (a fault-free path recorded by
// Counter) into per-class location counts, indexed by LocKind.
func CountKinds(kinds []LocKind) [3]int {
	var counts [3]int
	for _, k := range kinds {
		counts[k]++
	}
	return counts
}

// menu is one location class's fault-operator table with its cumulative draw
// distribution. cum == nil marks the uniform menu, which is drawn with a
// single Intn exactly as the pre-Model samplers did — keeping the RNG stream
// of an unbiased model bit-identical to the legacy code. A biased menu draws
// one Float64 and walks the cumulative table instead, so either way a fired
// fault costs exactly one RNG output.
type menu struct {
	ops []Fault
	cum []float64 // cumulative probabilities, ending at 1; nil => uniform
}

// menuSet holds the per-class menus of one model, indexed by LocKind. Menus
// are built once per model — the fix for the shared-OpsFor-slice hazard: the
// weighted tables never mutate the package-level operator slices and nothing
// allocates inside the shot loop.
type menuSet [3]menu

// newMenuSet builds the per-class menus for bias ratio eta. eta == 1 leaves
// every cum nil (uniform draws); otherwise the two-qubit menu gets the
// Eta^z cumulative weight table. The shared operator slices are referenced,
// never copied or modified — only the cumulative table is new memory.
func newMenuSet(eta float64) menuSet {
	ms := menuSet{
		Loc1Q:   {ops: ops1Q},
		Loc2Q:   {ops: ops2Q},
		LocMeas: {ops: opsMeas},
	}
	if eta == 1 {
		return ms
	}
	cum := make([]float64, len(ops2Q))
	total := 0.0
	for i, op := range ops2Q {
		w := 1.0
		if op.P1 == PZ {
			w *= eta
		}
		if op.P2 == PZ {
			w *= eta
		}
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1 // close the table against rounding
	ms[Loc2Q].cum = cum
	return ms
}

// pick maps a uniform draw u onto the menu. It accepts both RNG conventions
// in use — math/rand's [0, 1) and SplitMix64's (0, 1] — with at most one
// 2^-53 sliver of bias on the first operator.
func (mn *menu) pick(u float64) Fault {
	for i, c := range mn.cum {
		if u <= c {
			return mn.ops[i]
		}
	}
	return mn.ops[len(mn.ops)-1]
}

// draw samples one operator from the menu using the sampler's SplitMix64
// stream: the legacy Intn draw for uniform menus, one Float64 through the
// cumulative table for biased ones.
func (mn *menu) draw(rng *SplitMix64) Fault {
	if mn.cum == nil {
		return mn.ops[rng.Intn(len(mn.ops))]
	}
	return mn.pick(rng.Float64())
}

// OpWeights returns the menu's operator probabilities for bias ratio eta, in
// OpsFor order — the exact distribution the samplers draw from, exported for
// the fault-order enumerator and the statistical test oracles.
func OpWeights(kind LocKind, eta float64) []float64 {
	ms := newMenuSet(eta)
	mn := ms[kind]
	out := make([]float64, len(mn.ops))
	if mn.cum == nil {
		for i := range out {
			out[i] = 1 / float64(len(mn.ops))
		}
		return out
	}
	prev := 0.0
	for i, c := range mn.cum {
		out[i] = c - prev
		prev = c
	}
	return out
}
