package decoder

import (
	"fmt"
	"math/bits"

	"repro/internal/f2"
)

// maxDenseRank bounds the syndrome table size of a Dense decoder
// (2^rank correction entries). The catalog codes have rank <= 8; the bound
// only exists to refuse a pathological check matrix before allocating.
const maxDenseRank = 24

// Dense is the lookup decoder re-laid-out for the simulation hot path: the
// syndrome is packed into a uint64 index (bit i = parity of check row i
// against the error) addressing a flat array of corrections. It answers the
// same queries as Lookup — Decode, DecodeSyndrome, Size, Validate — plus
// allocation-free word-level primitives (Index, CheckRow, CorrectionWords)
// used by the compiled shot engines.
type Dense struct {
	h    *f2.Mat    // row-independent span basis of the check matrix
	n    int        // error vector length
	nw   int        // words per length-n vector
	rows [][]uint64 // check rows, bit-packed, one row per syndrome bit
	corr [][]uint64 // syndrome index -> correction words (shared storage)
	vecs []f2.Vec   // syndrome index -> correction as a Vec
}

// NewDense builds the dense table for check matrix h by packing the
// breadth-first minimum-weight table of NewLookup, so both decoders return
// bit-identical corrections. It panics when the rank exceeds maxDenseRank;
// use NewDenseChecked to get an error instead.
func NewDense(h *f2.Mat) *Dense {
	d, err := NewDenseChecked(h)
	if err != nil {
		panic(err)
	}
	return d
}

// NewDenseChecked is NewDense returning an error for check matrices whose
// rank would make the dense table unreasonably large.
func NewDenseChecked(h *f2.Mat) (*Dense, error) {
	lk := NewLookup(h)
	rank := lk.h.Rows()
	if rank > maxDenseRank {
		return nil, fmt.Errorf("decoder: rank %d exceeds dense table limit %d", rank, maxDenseRank)
	}
	d := &Dense{
		h:    lk.h,
		n:    lk.n,
		nw:   (lk.n + 63) / 64,
		rows: make([][]uint64, rank),
		corr: make([][]uint64, 1<<uint(rank)),
		vecs: make([]f2.Vec, 1<<uint(rank)),
	}
	for i := 0; i < rank; i++ {
		d.rows[i] = packWords(d.h.Row(i), d.nw)
	}
	for idx := range d.vecs {
		s := f2.NewVec(rank)
		for i := 0; i < rank; i++ {
			if idx>>uint(i)&1 == 1 {
				s.Set(i, true)
			}
		}
		c := lk.DecodeSyndrome(s)
		d.vecs[idx] = c
		d.corr[idx] = packWords(c, d.nw)
	}
	return d, nil
}

// packWords copies a vector's bit words into an owned slice of exactly nw
// words, so the dense tables never alias caller storage.
func packWords(v f2.Vec, nw int) []uint64 {
	w := make([]uint64, nw)
	copy(w, v.Words())
	return w
}

// Rank returns the number of syndrome bits (the dense table holds 2^Rank
// corrections).
func (d *Dense) Rank() int { return len(d.rows) }

// Len returns the error vector length n.
func (d *Dense) Len() int { return d.n }

// Index packs the syndrome of the bit-packed error e (nw words) into the
// table index: bit i is the GF(2) inner product of check row i with e.
// It performs no allocation.
func (d *Dense) Index(e []uint64) uint64 {
	var idx uint64
	for i, row := range d.rows {
		var acc uint64
		for j, w := range row {
			acc ^= w & e[j]
		}
		idx |= uint64(bits.OnesCount64(acc)&1) << uint(i)
	}
	return idx
}

// CheckRow returns check row i — the row whose parity against an error is
// bit i of Index — bit-packed in nw words. The slice is shared table
// storage; callers must only read it.
func (d *Dense) CheckRow(i int) []uint64 { return d.rows[i] }

// CorrectionWords returns the bit-packed minimum-weight correction for a
// syndrome index. The slice is shared table storage — callers must only
// read it (typically XORing it into their own frame). It performs no
// allocation.
func (d *Dense) CorrectionWords(idx uint64) []uint64 { return d.corr[idx] }

// Decode returns the minimum-weight error consistent with the syndrome of
// e, exactly like Lookup.Decode. The returned vector shares no storage with
// the table.
func (d *Dense) Decode(e f2.Vec) f2.Vec {
	return d.vecs[d.Index(e.Words())].Clone()
}

// DecodeSyndrome returns the correction for an explicit syndrome vector,
// exactly like Lookup.DecodeSyndrome.
func (d *Dense) DecodeSyndrome(s f2.Vec) f2.Vec {
	var idx uint64
	for i := 0; i < s.Len() && i < len(d.rows); i++ {
		if s.Get(i) {
			idx |= 1 << uint(i)
		}
	}
	return d.vecs[idx].Clone()
}

// Size returns the number of syndromes in the table.
func (d *Dense) Size() int { return len(d.vecs) }

// Validate checks that every table entry reproduces its own syndrome index.
func (d *Dense) Validate() error {
	for idx, c := range d.corr {
		if got := d.Index(c); got != uint64(idx) {
			return fmt.Errorf("decoder: dense entry %d maps to syndrome %d", idx, got)
		}
	}
	return nil
}
