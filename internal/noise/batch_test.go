package noise

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
)

// TestSparseSamplerMarginals checks that the geometric skip sampler
// reproduces the per-location Bernoulli(p) marginal of the scalar
// depolarizing model: over many sites, each lane's fault count must match
// n*p within a generous z-bound, and the 1Q operator menu must come out
// uniform.
func TestSparseSamplerMarginals(t *testing.T) {
	const p = 0.01
	const sites = 200_000
	s := NewSparseSampler(p, 42)
	var perLane [64]int
	opCount := map[string]int{}
	total := 0
	for i := 0; i < sites; i++ {
		x, z := s.Draw1Q(^uint64(0))
		for m := x | z; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			perLane[lane]++
			total++
			switch {
			case x>>uint(lane)&1 == 1 && z>>uint(lane)&1 == 1:
				opCount["Y"]++
			case x>>uint(lane)&1 == 1:
				opCount["X"]++
			default:
				opCount["Z"]++
			}
		}
	}
	mean := float64(sites) * p
	sd := math.Sqrt(float64(sites) * p * (1 - p))
	for lane, c := range perLane {
		if math.Abs(float64(c)-mean) > 5*sd {
			t.Fatalf("lane %d: %d faults over %d sites, want %.0f±%.0f", lane, c, sites, mean, 5*sd)
		}
	}
	third := float64(total) / 3
	for _, op := range []string{"X", "Y", "Z"} {
		if math.Abs(float64(opCount[op])-third) > 5*math.Sqrt(third) {
			t.Fatalf("operator %s drawn %d times of %d, want ~%.0f", op, opCount[op], total, third)
		}
	}
}

// TestSparseSamplerInactiveLanes checks thinning: faults never land outside
// the active mask, and a zero rate never faults at all.
func TestSparseSamplerInactiveLanes(t *testing.T) {
	s := NewSparseSampler(0.3, 9)
	const active = uint64(0x00FF00FF00FF00FF)
	for i := 0; i < 10_000; i++ {
		x1, z1, x2, z2 := s.Draw2Q(active)
		if (x1|z1|x2|z2)&^active != 0 {
			t.Fatalf("site %d: fault outside the active mask", i)
		}
	}
	z := NewSparseSampler(0, 9)
	for i := 0; i < 1000; i++ {
		if f := z.DrawMeas(^uint64(0)); f != 0 {
			t.Fatalf("p=0 sampler faulted at site %d", i)
		}
	}
}

// TestBatchPlanCounters pins the per-lane location semantics of BatchPlan:
// each Draw advances only the active lanes, so a lane's plan keys match the
// location indices the scalar executor would consume for that lane.
func TestBatchPlanCounters(t *testing.T) {
	plan := NewBatchPlan(map[int]map[int]Fault{
		0: {0: {P1: PX}, 2: {P1: PZ}},
		3: {1: {Flip: true}},
	})
	// Site 0: all lanes active. Lane 0 faults X, lane 3's plan has nothing
	// at location 0.
	x, z := plan.Draw1Q(^uint64(0))
	if x != 1 || z != 0 {
		t.Fatalf("site 0: x=%x z=%x, want x=1 z=0", x, z)
	}
	// Site 1: lane 0 inactive — its counter must NOT advance, while lane 3
	// reaches location 1 and flips.
	flip := plan.DrawMeas(^uint64(0) &^ 1)
	if flip != 1<<3 {
		t.Fatalf("site 1: flip=%x, want lane 3", flip)
	}
	// Site 2: lane 0 active again, still at location 1 (nothing planned).
	x, z = plan.Draw1Q(^uint64(0))
	if x != 0 || z != 0 {
		t.Fatalf("site 2: x=%x z=%x, want none (lane 0 at location 1)", x, z)
	}
	// Site 3: lane 0 reaches location 2 and faults Z.
	x, z = plan.Draw1Q(^uint64(0))
	if x != 0 || z != 1 {
		t.Fatalf("site 3: x=%x z=%x, want z=1", x, z)
	}
}

// TestBatchPlanSetReset pins the reusable-plan API: Set keeps a lane's
// faults sorted by location whatever the insertion order, a second Set at
// one location replaces the first (as a map assignment would), Lane hands
// the same plan to the scalar executor, and Reset empties every lane and
// rewinds its location counter for the next word.
func TestBatchPlanSetReset(t *testing.T) {
	var plan BatchPlan
	for word := 0; word < 2; word++ {
		plan.Set(5, 3, Fault{P1: PZ})
		plan.Set(5, 1, Fault{P1: PY})
		plan.Set(5, 3, Fault{P1: PX}) // replaces Z at location 3
		if want := map[int]Fault{1: {P1: PY}, 3: {P1: PX}}; !reflect.DeepEqual(plan.Lane(5).Faults, want) {
			t.Fatalf("word %d: lane 5 plan %v, want %v", word, plan.Lane(5).Faults, want)
		}
		for loc, want := range []struct{ x, z uint64 }{{0, 0}, {1 << 5, 1 << 5}, {0, 0}, {1 << 5, 0}, {0, 0}} {
			if x, z := plan.Draw1Q(^uint64(0)); x != want.x || z != want.z {
				t.Fatalf("word %d location %d: x=%x z=%x, want x=%x z=%x", word, loc, x, z, want.x, want.z)
			}
		}
		plan.Reset()
		if x, z := plan.Draw1Q(^uint64(0)); x != 0 || z != 0 {
			t.Fatalf("word %d: reset plan still faults: x=%x z=%x", word, x, z)
		}
	}
}

// Lane returns lane's plan as a scalar injector for the interpreted
// executor (allocating).
func (p *BatchPlan) Lane(lane int) *Plan {
	faults := make(map[int]Fault, len(p.lanes[lane]))
	for _, pf := range p.lanes[lane] {
		faults[int(pf.loc)] = pf.f
	}
	return NewPlan(faults)
}
