package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/store"
)

// reseal rewrites the header checksum of data to match its payload, so a
// mutated payload reaches the payload decoder instead of stopping at the
// checksum. Inputs without a JSON-object header line are returned as is.
func reseal(data []byte) []byte {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return data
	}
	var h map[string]any
	if json.Unmarshal(data[:nl], &h) != nil || h == nil {
		return data
	}
	sum := sha256.Sum256(bytes.TrimSuffix(data[nl+1:], []byte("\n")))
	h["checksum"] = "sha256:" + hex.EncodeToString(sum[:])
	hb, err := json.Marshal(h)
	if err != nil {
		return data
	}
	return append(append(hb, '\n'), data[nl+1:]...)
}

// maxFuzzSimQubits bounds the code length FuzzDecode simulates.
const maxFuzzSimQubits = 16

// FuzzDecode feeds resealed .dfp bytes to Decode. Every input must give a
// typed error (ErrCorrupt or ErrVersion), or a protocol that encodes to
// bytes which decode again and re-encode byte-identically and that the
// simulators run: one 64-lane batch word when it compiles and one
// interpreted shot, both at p = 0.1, without a panic. Codes longer than
// maxFuzzSimQubits decode but are not simulated: the decoder's syndrome
// table grows as 2^rank, so one such input would cost seconds and
// gigabytes without reaching any other code path.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.dfp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	nl := bytes.IndexByte(golden, '\n')
	f.Add(golden[:nl+1])
	f.Add(bytes.Replace(golden, []byte(`"n":4`), []byte(`"n":8`), 1))
	measuring := bytes.Replace(golden, []byte(`"prep":{"n":4,`), []byte(`"prep":{"n":4,"num_bits":1,`), 1)
	f.Add(bytes.Replace(measuring, []byte(`{"k":"cnot","q":0,"q2":3}`), []byte(`{"k":"cnot","q":0,"q2":3},{"k":"meas_z","q":3}`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, meta, err := store.Decode(reseal(data))
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		first, err := store.Encode(meta, p)
		if err != nil {
			t.Fatalf("decoded protocol does not encode: %v", err)
		}
		p2, meta2, err := store.Decode(first)
		if err != nil {
			t.Fatalf("re-encoded protocol does not decode: %v", err)
		}
		second, err := store.Encode(meta2, p2)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
		}
		if p.Code.N > maxFuzzSimQubits {
			return
		}
		est := sim.NewEstimator(p)
		if b := est.Batch(); b != nil {
			b.Run(b.NewShot(), noise.NewSparseSampler(0.1, 1), ^uint64(0))
		}
		sim.Run(p, &noise.Depolarizing{P: 0.1, Rng: rand.New(rand.NewSource(1))})
	})
}
