package code

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/f2"
)

// Steane returns the [[7,1,3]] Steane code with the generators used in the
// paper: X/Z stabilizers on {1,2,5,6}, {1,3,5,7}, {4,5,6,7} (1-based).
func Steane() *CSS {
	h := hammingMat(7, [][]int{{0, 1, 4, 5}, {0, 2, 4, 6}, {3, 4, 5, 6}})
	return MustNew("Steane", h, h.Clone())
}

// Shor returns the [[9,1,3]] Shor code: weight-2 Z stabilizers within the
// three blocks and weight-6 X stabilizers across block pairs.
func Shor() *CSS {
	hz := hammingMat(9, [][]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}})
	hx := hammingMat(9, [][]int{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}})
	return MustNew("Shor", hx, hz)
}

// Surface3 returns the distance-3 rotated surface code [[9,1,3]].
func Surface3() *CSS { return RotatedSurface(3) }

// RotatedSurface returns the [[d²,1,d]] rotated surface code for odd d ≥ 3.
// Data qubits sit on a d×d grid (row-major). Bulk plaquettes alternate
// Z/X in a checkerboard; weight-2 boundary stabilizers close the lattice so
// that the X logical runs down the left column and the Z logical along the
// top row.
func RotatedSurface(d int) *CSS {
	if d < 3 || d%2 == 0 {
		panic(fmt.Sprintf("code: rotated surface distance must be odd and >= 3, got %d", d))
	}
	n := d * d
	q := func(r, c int) int { return r*d + c }
	var xs, zs [][]int
	for r := 0; r < d-1; r++ {
		for c := 0; c < d-1; c++ {
			plq := []int{q(r, c), q(r, c+1), q(r+1, c), q(r+1, c+1)}
			if (r+c)%2 == 0 {
				zs = append(zs, plq)
			} else {
				xs = append(xs, plq)
			}
		}
	}
	for c := 0; c < d-1; c += 2 { // top boundary, X type
		xs = append(xs, []int{q(0, c), q(0, c+1)})
	}
	for c := 1; c < d-1; c += 2 { // bottom boundary, X type
		xs = append(xs, []int{q(d-1, c), q(d-1, c+1)})
	}
	for r := 1; r < d-1; r += 2 { // left boundary, Z type
		zs = append(zs, []int{q(r, 0), q(r+1, 0)})
	}
	for r := 0; r < d-1; r += 2 { // right boundary, Z type
		zs = append(zs, []int{q(r, d-1), q(r+1, d-1)})
	}
	name := "Surface"
	if d != 3 {
		name = fmt.Sprintf("Surface_%d", d)
	}
	return MustNew(name, hammingMat(n, xs), hammingMat(n, zs))
}

// ReedMuller15 returns the [[15,1,3]] punctured quantum Reed-Muller code
// (the "tetrahedral" code): qubit i ∈ {1..15} is labeled by its non-zero
// 4-bit expansion; X stabilizers are the four coordinate half-spaces
// (weight 8), Z stabilizers additionally include the six pairwise
// intersections (weight 4).
func ReedMuller15() *CSS {
	var xRows, zRows [][]int
	for b := 0; b < 4; b++ {
		var sup []int
		for lbl := 1; lbl <= 15; lbl++ {
			if lbl>>uint(b)&1 == 1 {
				sup = append(sup, lbl-1)
			}
		}
		xRows = append(xRows, sup)
		zRows = append(zRows, sup)
	}
	for b1 := 0; b1 < 4; b1++ {
		for b2 := b1 + 1; b2 < 4; b2++ {
			var sup []int
			for lbl := 1; lbl <= 15; lbl++ {
				if lbl>>uint(b1)&1 == 1 && lbl>>uint(b2)&1 == 1 {
					sup = append(sup, lbl-1)
				}
			}
			zRows = append(zRows, sup)
		}
	}
	return MustNew("Tetrahedral", hammingMat(15, xRows), hammingMat(15, zRows))
}

// Hamming15 returns the [[15,7,3]] quantum Hamming code with
// Hx = Hz = the parity-check matrix of the classical [15,11,3] Hamming code.
func Hamming15() *CSS {
	var rows [][]int
	for b := 0; b < 4; b++ {
		var sup []int
		for lbl := 1; lbl <= 15; lbl++ {
			if lbl>>uint(b)&1 == 1 {
				sup = append(sup, lbl-1)
			}
		}
		rows = append(rows, sup)
	}
	h := hammingMat(15, rows)
	return MustNew("Hamming", h, h.Clone())
}

// Tesseract returns the [[16,6,4]] tesseract code with Hx = Hz = the
// generator matrix of the first-order Reed-Muller code RM(1,4): the all-ones
// row plus the four coordinate half-spaces of the 4-cube.
func Tesseract() *CSS {
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	rows := [][]int{all}
	for b := 0; b < 4; b++ {
		var sup []int
		for v := 0; v < 16; v++ {
			if v>>uint(b)&1 == 1 {
				sup = append(sup, v)
			}
		}
		rows = append(rows, sup)
	}
	h := hammingMat(16, rows)
	return MustNew("Tesseract", h, h.Clone())
}

// Carbon returns a [[12,2,4]] CSS code with the parameters of the carbon
// code of da Silva et al. (arXiv:2404.02280), whose exact generators the
// paper does not print. This stand-in is the concatenation of three
// [[4,2,2]] C4 blocks under a [[6,2,2]] C6 outer code (Knill's C4/C6
// scheme), with the outer qubits assigned across blocks so that every
// weight-2 outer logical splits over two blocks; the distance dX = dZ = 4
// is certified exactly by Distance.
func Carbon() *CSS {
	hx := f2.NewMat(12)
	hz := f2.NewMat(12)
	// Inner C4 block stabilizers X⊗4 / Z⊗4 on qubits {4i..4i+3}.
	for _, b := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}} {
		hx.MustAppendRow(f2.FromSupport(12, b...))
		hz.MustAppendRow(f2.FromSupport(12, b...))
	}
	// Outer C6 stabilizers expressed through the inner logical operators
	// (X̄1 = X_aX_b, X̄2 = X_aX_c; Z̄1 = Z_aZ_c, Z̄2 = Z_aZ_b per block),
	// with outer qubits 0..5 placed at (block,slot) =
	// (A,1),(B,1),(A,2),(C,1),(B,2),(C,2).
	hx.MustAppendRow(f2.FromSupport(12, 1, 2, 4, 5, 8, 9))
	hx.MustAppendRow(f2.FromSupport(12, 0, 2, 4, 6, 9, 10))
	hz.MustAppendRow(f2.FromSupport(12, 1, 2, 4, 6, 8, 10))
	hz.MustAppendRow(f2.FromSupport(12, 0, 1, 4, 5, 9, 10))
	return MustNew("Carbon", hx, hz)
}

// CSS11 returns a weakly self-dual [[11,1,3]] CSS code standing in for the
// Grassl-wsd-table instance referenced by the paper (exact generators not
// public). Found by cmd/codesearch (searched.go); distance certified exactly.
func CSS11() *CSS {
	h := f2.MustMatFromStrings(css11Rows...)
	return MustNew("[[11,1,3]]", h, h.Clone())
}

// CSS16 returns a weakly self-dual [[16,2,4]] CSS code standing in for the
// Grassl-wsd-table instance referenced by the paper. Found by
// cmd/codesearch (searched.go); distance certified exactly.
func CSS16() *CSS {
	h := f2.MustMatFromStrings(css16Rows...)
	return MustNew("[[16,2,4]]", h, h.Clone())
}

// C4 returns the [[4,2,2]] error-detecting code (stabilizers X⊗4, Z⊗4),
// the inner code of Knill's C4/C6 scheme and the building block of Carbon.
func C4() *CSS {
	hx := hammingMat(4, [][]int{{0, 1, 2, 3}})
	hz := hammingMat(4, [][]int{{0, 1, 2, 3}})
	return MustNew("C4", hx, hz)
}

// C6 returns the [[6,2,2]] error-detecting code used as the outer code of
// the C4/C6 scheme.
func C6() *CSS {
	h := hammingMat(6, [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}})
	return MustNew("C6", h, h.Clone())
}

// Entry describes one catalog code by its name and [[n,k,d]] parameters,
// without building it.
type Entry struct {
	Name string `json:"name"`
	N    int    `json:"n"` // physical qubits
	K    int    `json:"k"` // logical qubits
	D    int    `json:"d"` // exact code distance
}

// catalog lists the paper-evaluation codes in Table I order, each by entry
// and constructor, so a lookup builds only the code it returns and a
// listing builds none.
var catalog = []struct {
	Entry
	build func() *CSS
}{
	{Entry{"Steane", 7, 1, 3}, Steane},
	{Entry{"Shor", 9, 1, 3}, Shor},
	{Entry{"Surface", 9, 1, 3}, Surface3},
	{Entry{"[[11,1,3]]", 11, 1, 3}, CSS11},
	{Entry{"Tetrahedral", 15, 1, 3}, ReedMuller15},
	{Entry{"Hamming", 15, 7, 3}, Hamming15},
	{Entry{"Carbon", 12, 2, 4}, Carbon},
	{Entry{"[[16,2,4]]", 16, 2, 4}, CSS16},
	{Entry{"Tesseract", 16, 6, 4}, Tesseract},
}

// Catalog returns all paper-evaluation codes in Table I order.
func Catalog() []*CSS {
	out := make([]*CSS, len(catalog))
	for i, e := range catalog {
		out[i] = e.build()
	}
	return out
}

// Entries describes the catalog in Table I order without building a code.
func Entries() []Entry {
	out := make([]Entry, len(catalog))
	for i, e := range catalog {
		out[i] = e.Entry
	}
	return out
}

// Slug returns the canonical, case-insensitive, filesystem- and URL-safe
// form of a code name: lowercased, with every maximal run of
// non-alphanumeric characters collapsed into a single '-' and leading or
// trailing dashes trimmed. Examples: "Steane" → "steane",
// "[[11,1,3]]" → "11-1-3", "Surface_5" → "surface-5". Two catalog names are
// considered the same code exactly when their slugs are equal, which is what
// lets user-facing surfaces (CLIs, HTTP requests) accept relaxed spellings
// while cache and store keys stay canonical.
func Slug(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if dash && sb.Len() > 0 {
				sb.WriteByte('-')
			}
			dash = false
			sb.WriteRune(r)
		default:
			dash = true
		}
	}
	return sb.String()
}

// ByName returns the catalog code with the given name, or an error listing
// the available names. Besides exact catalog names it accepts any spelling
// with the same canonical Slug, e.g. "steane" or "11-1-3".
// Catalog slugs are unique, so at most one entry can match.
func ByName(name string) (*CSS, error) {
	want := Slug(name)
	var names []string
	for _, e := range catalog {
		if e.Name == name || (want != "" && Slug(e.Name) == want) {
			return e.build(), nil
		}
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("code: unknown code %q (available: %v)", name, names)
}

// hammingMat builds a matrix over n columns from support lists.
func hammingMat(n int, rows [][]int) *f2.Mat {
	m := f2.NewMat(n)
	for _, sup := range rows {
		m.MustAppendRow(f2.FromSupport(n, sup...))
	}
	return m
}
