package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/code"
)

// transpose64 transposes the 64×64 bit matrix w in place — bit j of word i
// moves to bit i of word j — by the recursive block swap of Hacker's
// Delight §7-3. It is the transpose the batch Judge ran before it judged
// word-wide, kept for refJudge.
func transpose64(w *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (w[k]>>uint(j) ^ w[k+j]) & m
			w[k+j] ^= t
			w[k] ^= t << uint(j)
		}
	}
}

// refJudge is the batch Judge as it was before word-wide judging: it
// transposes the lane-major X frame into one qubit-major frame per lane,
// one 64×64 block per 64 qubits, and for every live lane with a nonzero
// frame decodes the syndrome, XORs in the correction and tests each
// logical-Z row. TestJudgeMatchesTranspose holds Batch.Judge to it.
func refJudge(b *Batch, bs *BatchShot) uint64 {
	var any uint64
	for _, w := range bs.ex {
		any |= w
	}
	any &= bs.Live
	if any == 0 {
		return 0
	}
	exT := make([]uint64, 64*b.nw)
	var t [64]uint64
	for blk := 0; blk < b.nw; blk++ {
		lo, hi := blk*64, min(blk*64+64, b.n)
		t = [64]uint64{}
		copy(t[:hi-lo], bs.ex[lo:hi])
		transpose64(&t)
		for lane := 0; lane < 64; lane++ {
			exT[lane*b.nw+blk] = t[lane]
		}
	}
	tmp := make([]uint64, b.nw)
	var fails uint64
	for a := any; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros64(a)
		e := exT[lane*b.nw : (lane+1)*b.nw]
		corr := b.dec.CorrectionWords(b.dec.Index(e))
		for j := range e {
			tmp[j] = e[j] ^ corr[j]
		}
		for _, row := range b.lz {
			var acc uint64
			for j, w := range row {
				acc ^= w & tmp[j]
			}
			if bits.OnesCount64(acc)&1 == 1 {
				fails |= 1 << uint(lane)
				break
			}
		}
	}
	return fails
}

// TestJudgeMatchesTranspose is the differential of the word-wide judge:
// on every catalog code, Batch.Judge must return exactly refJudge's mask,
// and so must the λ identity on each live lane's own qubit-major frame e
// (a failure iff Lz·e differs from λ of e's syndrome index).
// Frames are sparse (a few X errors per lane), dense (uniform random),
// zero-syndrome with logical bits set (random sums of X stabilizers and X
// logicals, which no correction touches), and zero-syndrome sums plus a
// few errors; live masks are full, empty, a word-end prefix and random.
// Only the decoder and logical rows enter the judge, so each code's
// program is just its compiled final EC round, with no synthesis.
func TestJudgeMatchesTranspose(t *testing.T) {
	for _, cs := range code.Catalog() {
		t.Run(cs.Name, func(t *testing.T) {
			batch := &Batch{n: cs.N, nw: (cs.N + 63) / 64}
			if err := batch.compileJudge(cs); err != nil {
				t.Fatal(err)
			}
			bs, e := batch.NewShot(), make([]uint64, batch.nw)
			rng := rand.New(rand.NewSource(int64(cs.N)))
			flip := func(lane, q int) { bs.ex[q] ^= 1 << uint(lane) }
			// codeword XORs a random sum of X stabilizers and X logicals,
			// with at least one logical, into lane.
			codeword := func(lane int) {
				var rows []uint64
				for i := 0; i < cs.Hx.Rows(); i++ {
					if rng.Intn(2) == 1 {
						rows = append(rows, cs.Hx.Row(i).Words()...)
					}
				}
				for i, must := 0, rng.Intn(cs.Lx.Rows()); i < cs.Lx.Rows(); i++ {
					if i == must || rng.Intn(2) == 1 {
						rows = append(rows, cs.Lx.Row(i).Words()...)
					}
				}
				for ri := 0; ri < len(rows); ri += batch.nw {
					for j, w := range rows[ri : ri+batch.nw] {
						for ; w != 0; w &= w - 1 {
							flip(lane, j*64+bits.TrailingZeros64(w))
						}
					}
				}
			}
			sparse := func(lane int) {
				for k := rng.Intn(4); k > 0; k-- {
					flip(lane, rng.Intn(cs.N))
				}
			}
			frames := []struct {
				name string
				fill func(lane int)
			}{
				{"sparse", sparse},
				{"dense", func(lane int) {
					for q := 0; q < cs.N; q++ {
						if rng.Intn(2) == 1 {
							flip(lane, q)
						}
					}
				}},
				{"logical", codeword},
				{"logical+sparse", func(lane int) { codeword(lane); sparse(lane) }},
			}
			lives := []uint64{^uint64(0), 0, 1<<37 - 1}
			for _, fr := range frames {
				for word := 0; word < 64; word++ {
					for q := range bs.ex {
						bs.ex[q] = 0
					}
					for lane := 0; lane < 64; lane++ {
						fr.fill(lane)
					}
					live := rng.Uint64()
					if word < len(lives) {
						live = lives[word]
					}
					bs.Live = live
					name := fmt.Sprintf("%s word %d live %#x", fr.name, word, live)
					got, want := batch.Judge(bs), refJudge(batch, bs)
					if got != want {
						t.Fatalf("%s: Judge = %#x, transpose judge = %#x", name, got, want)
					}
					for lane := 0; lane < 64; lane++ {
						if live>>uint(lane)&1 == 0 {
							continue
						}
						for j := range e {
							e[j] = 0
						}
						for q := 0; q < cs.N; q++ {
							e[q/64] |= bs.ex[q] >> uint(lane) & 1 << uint(q%64)
						}
						if fails := batch.logicals(e) != batch.lambda[batch.dec.Index(e)]; fails != (got>>uint(lane)&1 == 1) {
							t.Fatalf("%s: the λ identity disagrees on lane %d", name, lane)
						}
					}
					// A codeword lane has a zero syndrome and, since it holds
					// a nonzero sum of X logicals, a logical bit set: it
					// must fail on every live lane.
					if fr.name == "logical" && got != live {
						t.Fatalf("%s: Judge = %#x, want every live lane", name, got)
					}
				}
			}
		})
	}
}
