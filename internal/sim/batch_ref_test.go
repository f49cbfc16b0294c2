package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
)

// runOneLane is Batch.Run as it was before correction blocks went
// word-wide: every triggered lane is resolved alone, its primary and hook
// blocks measured under a one-lane mask, which is a scalar replay on the
// batch state. TestGroupedBlocksMatchOneLane holds Run to it.
func (b *Batch) runOneLane(bs *BatchShot, inj noise.BatchInjector, live uint64) {
	clear(bs.ex)
	clear(bs.ez)
	bs.Live = live
	bs.Triggered, bs.UnknownClass, bs.TerminatedEarly = 0, 0, 0
	b.exec(bs, b.prep, inj, live)
	active := live
	for li := range b.layers {
		if active == 0 {
			return
		}
		lay := &b.layers[li]
		trig := b.verify(bs, lay, inj, active)
		bs.Triggered |= trig
		// The blocks reuse the outcome slots, so keep the layer's.
		outs := append([]uint64(nil), bs.out[:2*lay.m]...)
		for t := trig; t != 0; t &= t - 1 {
			lane := uint(bits.TrailingZeros64(t))
			var sig uint64
			for k, w := range outs {
				sig |= (w >> lane & 1) << uint(k)
			}
			var cc *progClass
			for ci := range lay.classes {
				if lay.classes[ci].sig == sig {
					cc = &lay.classes[ci]
				}
			}
			if cc == nil {
				bs.UnknownClass |= 1 << lane
				continue
			}
			flagFired := sig>>uint(lay.m) != 0
			if cc.primary != nil {
				b.runBlockOneLane(bs, cc.primary, inj, lane)
			}
			if cc.hook != nil && flagFired {
				b.runBlockOneLane(bs, cc.hook, inj, lane)
			}
			if flagFired {
				bs.TerminatedEarly |= 1 << lane
				active &^= 1 << lane
			}
		}
	}
}

// runBlockOneLane measures the block's stabilizers for one lane under a
// single-lane mask and XORs the dense-table recovery into bit lane of the
// corrected sector.
func (b *Batch) runBlockOneLane(bs *BatchShot, blk *progBlock, inj noise.BatchInjector, lane uint) {
	mask := uint64(1) << lane
	b.exec(bs, blk.ops, inj, mask)
	var idx uint64
	for i, out := range bs.out[:blk.u] {
		if out != 0 {
			idx |= 1 << uint(i)
		}
	}
	rec := blk.rec[idx]
	if rec == nil {
		return
	}
	dst := bs.ex
	if !blk.corrEx {
		dst = bs.ez
	}
	for j, w := range rec {
		for ww := w; ww != 0; ww &= ww - 1 {
			dst[j*64+bits.TrailingZeros64(ww)] ^= mask
		}
	}
}

// siteCounter counts the sites an injector is asked to draw.
type siteCounter struct {
	noise.BatchInjector
	sites int
}

func (c *siteCounter) Draw1Q(active uint64) (x, z uint64) {
	c.sites++
	return c.BatchInjector.Draw1Q(active)
}

func (c *siteCounter) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	c.sites++
	return c.BatchInjector.Draw2Q(active)
}

func (c *siteCounter) DrawMeas(active uint64) uint64 {
	c.sites++
	return c.BatchInjector.DrawMeas(active)
}

// TestGroupedBlocksMatchOneLane is the differential of the word-wide
// correction blocks: on every catalog code but Tesseract (whose synthesis
// takes minutes), Batch.Run and the one-lane reference replay the same
// per-lane fault plans, and every lane must come out with bit-identical
// frames, branch flags and Judge verdict. Each word's lanes mostly share a
// few base faults, single faults that trigger a layer (half of them
// firing a hook flag where the protocol has any), so several triggered
// lanes fall into each class; each such lane adds its own faults right
// after the base, where its correction blocks run. The rest carry random
// plans. The grouped path must draw fewer sites than the reference; the
// live masks are full, a word-end prefix and random.
func TestGroupedBlocksMatchOneLane(t *testing.T) {
	for _, cs := range code.Catalog() {
		if cs.Name == code.Tesseract().Name {
			continue
		}
		t.Run(cs.Name, func(t *testing.T) {
			p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
			if err != nil {
				t.Fatal(err)
			}
			est := NewEstimator(p)
			batch := est.Batch()
			if batch == nil {
				t.Fatal("batch engine unavailable")
			}
			kinds := est.LocationKinds()
			n := len(kinds)
			rng := rand.New(rand.NewSource(int64(n)))
			got, want := batch.NewShot(), batch.NewShot()

			// The single faults on the fault-free path that trigger a
			// layer, and those that also fire a hook flag.
			type single struct {
				loc int
				f   noise.Fault
			}
			var singles []single
			for loc := range kinds {
				for _, f := range noise.OpsFor(kinds[loc]) {
					singles = append(singles, single{loc, f})
				}
			}
			var trig, flag []single
			for w := 0; w < len(singles); w += 64 {
				plans := map[int]map[int]noise.Fault{}
				for lane := 0; lane < 64 && w+lane < len(singles); lane++ {
					plans[lane] = map[int]noise.Fault{singles[w+lane].loc: singles[w+lane].f}
				}
				batch.runOneLane(want, noise.NewBatchPlan(plans), ^uint64(0))
				for lane := range plans {
					switch bit := uint64(1) << uint(lane); {
					case want.TerminatedEarly&bit != 0:
						flag = append(flag, singles[w+lane])
					case want.Triggered&bit != 0:
						trig = append(trig, singles[w+lane])
					}
				}
			}
			if len(trig) == 0 {
				t.Fatal("no single fault triggers a layer")
			}

			// anyFault carries every component, so it means something at a
			// location of any kind: past a trigger, a location's kind
			// depends on the lane's path through its blocks.
			anyFault := func() noise.Fault {
				return noise.Fault{P1: byte(1 + rng.Intn(3)), P2: byte(rng.Intn(4)), Flip: rng.Intn(2) == 0}
			}
			var grouped, oneLane int
			for word := 0; word < 24; word++ {
				bases := make([]single, 6)
				for i := range bases {
					if len(flag) > 0 && i%2 == 0 {
						bases[i] = flag[rng.Intn(len(flag))]
					} else {
						bases[i] = trig[rng.Intn(len(trig))]
					}
				}
				plans := map[int]map[int]noise.Fault{}
				for lane := 0; lane < 64; lane++ {
					plan := map[int]noise.Fault{}
					if rng.Intn(8) == 0 {
						for k := rng.Intn(5); k > 0; k-- {
							plan[rng.Intn(2*n)] = anyFault()
						}
					} else {
						b := bases[rng.Intn(len(bases))]
						plan[b.loc] = b.f
						for k := rng.Intn(3); k > 0; k-- {
							plan[b.loc+1+rng.Intn(n)] = anyFault()
						}
					}
					plans[lane] = plan
				}
				live := rng.Uint64()
				switch word % 3 {
				case 0:
					live = ^uint64(0)
				case 1:
					live = 1<<uint(1+rng.Intn(63)) - 1
				}
				gi := &siteCounter{BatchInjector: noise.NewBatchPlan(plans)}
				ri := &siteCounter{BatchInjector: noise.NewBatchPlan(plans)}
				batch.Run(got, gi, live)
				batch.runOneLane(want, ri, live)
				grouped += gi.sites
				oneLane += ri.sites

				name := fmt.Sprintf("word %d live %#x", word, live)
				for q := range got.ex {
					if got.ex[q] != want.ex[q] || got.ez[q] != want.ez[q] {
						t.Fatalf("%s: frames differ on qubit %d: grouped %#x/%#x, one-lane %#x/%#x",
							name, q, got.ex[q], got.ez[q], want.ex[q], want.ez[q])
					}
				}
				if got.Triggered != want.Triggered || got.UnknownClass != want.UnknownClass ||
					got.TerminatedEarly != want.TerminatedEarly {
					t.Fatalf("%s: flag masks differ: grouped %#x/%#x/%#x, one-lane %#x/%#x/%#x", name,
						got.Triggered, got.UnknownClass, got.TerminatedEarly,
						want.Triggered, want.UnknownClass, want.TerminatedEarly)
				}
				if g, w := batch.Judge(got), batch.Judge(want); g != w {
					t.Fatalf("%s: verdicts differ: grouped %#x, one-lane %#x", name, g, w)
				}
			}
			if grouped >= oneLane {
				t.Fatalf("grouped path drew %d sites, one-lane %d: no block ran for several lanes", grouped, oneLane)
			}
			t.Logf("%d triggering single faults, %d firing a flag; sites drawn: grouped %d, one-lane %d",
				len(trig)+len(flag), len(flag), grouped, oneLane)
		})
	}
}
