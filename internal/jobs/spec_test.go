package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/noise"
	"repro/internal/sim"
)

// biasSpecBase is a valid reference spec the noise-model identity tests
// perturb.
func biasSpecBase() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Rates:       []float64{1e-3, 1e-2},
		MCShots:     10000,
		Seed:        7,
	}
}

// TestSpecBiasHashIdentity is the hash-stability table of the noise-model
// fields: omitted, zero and explicit-1 bias fields must all map onto the
// legacy spec's ID (so old job files keep their identity), while any real
// bias must split it.
func TestSpecBiasHashIdentity(t *testing.T) {
	base := biasSpecBase().ID()
	same := []struct {
		name string
		mut  func(*Spec)
	}{
		{"explicit ones", func(s *Spec) { s.Bias2Q, s.BiasMeas, s.Eta = 1, 1, 1 }},
		{"explicit zeros", func(s *Spec) { s.Bias2Q, s.BiasMeas, s.Eta = 0, 0, 0 }},
		{"mixed one and zero", func(s *Spec) { s.Bias2Q, s.Eta = 1, 0 }},
	}
	for _, tc := range same {
		s := biasSpecBase()
		tc.mut(&s)
		if got := s.ID(); got != base {
			t.Fatalf("%s: ID %s, want the legacy ID %s", tc.name, got, base)
		}
		if s.Biased() {
			t.Fatalf("%s: spec reports itself biased", tc.name)
		}
	}

	diff := []struct {
		name string
		mut  func(*Spec)
	}{
		{"bias2q", func(s *Spec) { s.Bias2Q = 2 }},
		{"biasmeas", func(s *Spec) { s.BiasMeas = 0.5 }},
		{"eta", func(s *Spec) { s.Eta = 4 }},
	}
	ids := map[string]string{"": base}
	for _, tc := range diff {
		s := biasSpecBase()
		tc.mut(&s)
		id := s.ID()
		for name, other := range ids {
			if id == other {
				t.Fatalf("%s: ID collides with %q", tc.name, name)
			}
		}
		ids[tc.name] = id
		if !s.Biased() {
			t.Fatalf("%s: spec does not report itself biased", tc.name)
		}
	}
}

// TestSpecModelSelection checks the spec -> noise.Model plumbing: the ratio
// substitutes 1 for omitted fields and Model scales it to a point's rate.
func TestSpecModelSelection(t *testing.T) {
	s := biasSpecBase()
	if m := s.Model(1e-3); !m.IsUniform() || m.P1Q != 1e-3 {
		t.Fatalf("legacy spec model = %+v, want uniform 1e-3", m)
	}
	s.Bias2Q, s.BiasMeas, s.Eta = 2, 0.5, 4
	want := noise.Model{P1Q: 1e-3, P2Q: 2e-3, PMeas: 5e-4, Eta: 4}
	if m := s.Model(1e-3); m != want {
		t.Fatalf("biased spec model = %+v, want %+v", m, want)
	}
}

// TestSpecValidateBias is the rejection table for the noise-model fields:
// multipliers must be positive and finite (or 0 for the default), and the
// scaled model must stay below rate 1 on every grid point.
func TestSpecValidateBias(t *testing.T) {
	valid := biasSpecBase()
	valid.Bias2Q, valid.BiasMeas, valid.Eta = 2, 0.5, 4
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid biased spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"negative bias2q", func(s *Spec) { s.Bias2Q = -1 }},
		{"NaN biasmeas", func(s *Spec) { s.BiasMeas = math.NaN() }},
		{"Inf eta", func(s *Spec) { s.Eta = math.Inf(1) }},
		{"negative eta", func(s *Spec) { s.Eta = -2 }},
		{"scaled rate reaches 1", func(s *Spec) { s.Bias2Q = 200; s.Rates = []float64{5e-3} }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := biasSpecBase()
			tc.mut(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

// FuzzSpecID locks the identity machinery of the noise-model fields for
// arbitrary finite multipliers: normalization is idempotent, the ID is
// computed over the normalized form, a multiplier of exactly 1 never splits
// the identity, and the ID survives a JSON round trip (the on-disk header
// encoding).
func FuzzSpecID(f *testing.F) {
	f.Add(1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 0.0)
	f.Add(2.0, 0.5, 4.0)
	f.Add(1e-9, 1e9, 1.0)
	f.Fuzz(func(t *testing.T, bias2q, biasMeas, eta float64) {
		for _, v := range []float64{bias2q, biasMeas, eta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // rejected by Validate; JSON cannot encode them
			}
		}
		s := biasSpecBase()
		s.Bias2Q, s.BiasMeas, s.Eta = bias2q, biasMeas, eta

		n := s.Normalized()
		if !reflect.DeepEqual(n, n.Normalized().Normalized()) {
			t.Fatalf("Normalized not idempotent: %+v vs %+v", n, n.Normalized())
		}
		if s.ID() != n.ID() {
			t.Fatal("ID differs between a spec and its normalized form")
		}
		if bias2q == 1 || bias2q == 0 {
			ref := s
			ref.Bias2Q = 0
			if s.ID() != ref.ID() {
				t.Fatalf("bias2q = %g split the identity from the omitted form", bias2q)
			}
		}

		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.ID() != s.ID() {
			t.Fatal("ID changed across a JSON round trip")
		}
	})
}

// TestBiasedJobMatchesSingleProcess extends the core sharding invariant to
// biased noise models on both methods, under both legacy engine values of
// the spec (see TestJobMatchesSingleProcess): a checkpointed,
// pooled job under per-class rates must reproduce the in-process
// AdaptiveModel estimate bit for bit — including the rare-event statistics
// refinished from the durable per-class location counts.
func TestBiasedJobMatchesSingleProcess(t *testing.T) {
	for _, engine := range []string{"batch", "scalar"} {
		for _, method := range []string{"direct", "rare"} {
			t.Run(engine+"/"+method, func(t *testing.T) {
				spec := Spec{
					ProtocolKey: testProtocolKey,
					Method:      method,
					Engine:      engine,
					Rates:       []float64{3e-3, 1e-2},
					MCShots:     2*sim.BlockShots + 500,
					Seed:        13,
					Bias2Q:      2,
					BiasMeas:    0.5,
					Eta:         4,
				}
				store, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				r := NewRunner(store, steaneResolver(t), 3, "")
				defer r.Close(context.Background())
				st, err := r.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				st = waitTerminal(t, r, st.ID)
				if st.State != StateDone {
					t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
				}
				for i := range spec.Rates {
					want := singleProcessPoint(t, spec, i)
					checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
				}

				// The biased statistics must also survive a reload from disk:
				// the stored per-class location counts are what pointStatus
				// refinishes CondP and the strata weights from.
				disk, err := store.Load(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				reloaded := pointStatuses(disk.Spec, disk.Points)
				for i := range spec.Rates {
					want := singleProcessPoint(t, spec, i)
					checkPointMatches(t, fmt.Sprintf("reloaded point %d", i), reloaded[i], want)
				}
			})
		}
	}
}
