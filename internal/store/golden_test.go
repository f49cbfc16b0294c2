package store_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current encoder")

const goldenKey = "code:golden|prep=heu,budget=0|verif=opt,limit=0|flagall=false"

// fixtureProtocol hand-builds a small protocol covering every corner of the
// schema — flagged and unflagged measurements, a zero-measurement block
// with an empty syndrome key, primary and hook blocks, nil blocks — without
// running any synthesis, so the golden file is deterministic by
// construction rather than by trusting solver determinism.
func fixtureProtocol() *core.Protocol {
	cs := code.MustNew("golden", f2.MustMatFromStrings("1111"), f2.MustMatFromStrings("1111"))
	prep := circuit.New(4)
	prep.AppendPrepX(0)
	prep.AppendPrepZ(1)
	prep.AppendPrepZ(2)
	prep.AppendPrepZ(3)
	prep.AppendCNOT(0, 1)
	prep.AppendCNOT(0, 2)
	prep.AppendCNOT(0, 3)

	vec := f2.MustFromString
	layer := &core.Layer{
		Detects: code.ErrX,
		Verif: []core.Measurement{
			{Stab: vec("1111"), Kind: code.ErrZ, Order: []int{0, 1, 2, 3}, Flagged: true},
			{Stab: vec("1111"), Kind: code.ErrZ, Order: []int{3, 2, 1, 0}},
		},
		Classes: map[string]*core.ClassCorrection{},
	}
	addClass := func(c *core.ClassCorrection) { layer.Classes[c.Sig.Key()] = c }
	// The trivial signature: nothing fired, no measurements needed, one
	// shared recovery under the empty syndrome key.
	addClass(&core.ClassCorrection{
		Sig:     core.Signature{B: "00", F: "0"},
		Primary: &correct.Block{Recovery: map[string]f2.Vec{"": vec("0000")}},
	})
	// A primary correction with one extra measurement and two cells.
	addClass(&core.ClassCorrection{
		Sig: core.Signature{B: "10", F: "0"},
		Primary: &correct.Block{
			Stabs:    []f2.Vec{vec("1100")},
			Recovery: map[string]f2.Vec{"0": vec("0000"), "1": vec("1000")},
		},
	})
	// A flag-triggered class carrying only a hook block.
	addClass(&core.ClassCorrection{
		Sig: core.Signature{B: "01", F: "1"},
		Hook: &correct.Block{
			Stabs:    []f2.Vec{vec("0011")},
			Recovery: map[string]f2.Vec{"1": vec("0001")},
		},
	})
	return &core.Protocol{Code: cs, Prep: prep, Layers: []*core.Layer{layer}}
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden.dfp")
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	return data
}

func TestGoldenFileMatchesEncoder(t *testing.T) {
	got, err := store.Encode(store.Meta{Key: goldenKey}, fixtureProtocol())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := goldenBytes(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder output diverged from the golden file.\nThis is a schema change: bump store.Version and update docs/protocol-format.md, then run with -update.\n got: %s\nwant: %s", got, want)
	}
}

func TestGoldenDecodeReencodeIsByteStable(t *testing.T) {
	data := goldenBytes(t)
	p, meta, err := store.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if meta.Key != goldenKey || meta.Code != "golden" {
		t.Fatalf("meta = %+v", meta)
	}
	re, err := store.Encode(meta, p)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("decode → re-encode is not byte-stable\n got: %s\nwant: %s", re, data)
	}
}

func TestDecodeRejectsDamagedFilesWithTypedErrors(t *testing.T) {
	golden := string(goldenBytes(t))
	cases := []struct {
		name string
		data string
		want error
	}{
		{"empty", "", store.ErrCorrupt},
		{"no header newline", strings.ReplaceAll(golden, "\n", " "), store.ErrCorrupt},
		{"garbage header", "not json\n" + golden, store.ErrCorrupt},
		{"wrong format tag", strings.Replace(golden, `"format":"dftsp-protocol"`, `"format":"something-else"`, 1), store.ErrCorrupt},
		{"future version", strings.Replace(golden, `"version":1`, `"version":99`, 1), store.ErrVersion},
		{"truncated payload", golden[:len(golden)-25], store.ErrCorrupt},
		{"bit flip in payload", strings.Replace(golden, `"1000"`, `"1001"`, 1), store.ErrCorrupt},
		{"checksum replaced", strings.Replace(golden, `"checksum":"sha256:`, `"checksum":"sha256:00`, 1), store.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == golden {
				t.Fatal("test case did not modify the golden bytes")
			}
			_, _, err := store.Decode([]byte(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsSemanticCorruption(t *testing.T) {
	// Payload-level damage that keeps the JSON well-formed but the
	// protocol invalid must also surface as ErrCorrupt, never a panic.
	break1 := fixtureProtocol()
	break1.Prep.Gates[4].Q2 = 99 // qubit out of range
	break2 := fixtureProtocol()
	break2.Layers[0].Verif[0].Stab = f2.MustFromString("11110000") // wrong length
	break3 := fixtureProtocol()
	break3.Layers[0].Verif[0].Order = []int{0, 1, 2, 99} // CNOT order off the code
	break4 := fixtureProtocol()
	break4.Prep.AppendMeasZ(3)
	break4.Prep.Gates[len(break4.Prep.Gates)-1].Bit = 5 // classical bit >= num_bits
	break5 := fixtureProtocol()
	break5.Prep.N = 8 // wider than the 4-qubit code
	break5.Prep.AppendH(7)
	break6 := fixtureProtocol()
	break6.Prep.AppendMeasZ(3) // no synthesis emits a measuring prep
	break7 := fixtureProtocol()
	break7.Prep.AppendMeasX(0)

	for name, p := range map[string]*core.Protocol{
		"qubit out of range":         break1,
		"stab length":                break2,
		"order qubit out of range":   break3,
		"classical bit out of range": break4,
		"prep wider than code":       break5,
		"measuring prep":             break6,
		"measuring prep x":           break7,
	} {
		t.Run(name, func(t *testing.T) {
			data, err := store.Encode(store.Meta{Key: goldenKey}, p)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, _, err := store.Decode(data); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}
