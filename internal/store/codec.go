package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
)

// Version is the schema version this package writes. Decode accepts exactly
// this version; see docs/protocol-format.md for the compatibility policy
// (the format is append-only within a version, and any breaking change —
// removing or reinterpreting a field — bumps the version).
const Version = 1

// Format is the format tag carried by every file header; it lets a reader
// reject arbitrary JSON files before looking at the version.
const Format = "dftsp-protocol"

// header is the first line of every store file: everything a reader needs to
// identify, validate and list the entry without decoding the payload.
type header struct {
	Format   string `json:"format"`   // always the Format constant
	Version  int    `json:"version"`  // schema version of the payload
	Key      string `json:"key"`      // canonical options key the entry is addressed by
	Code     string `json:"code"`     // code name, for cheap listings
	Params   string `json:"params"`   // [[n,k,d]] string, for cheap listings
	Checksum string `json:"checksum"` // "sha256:<hex>" over the payload bytes
}

// record is the JSON payload: a complete core.Protocol plus the normalized
// options it was synthesized from (opaque to this package).
type record struct {
	Options json.RawMessage `json:"options,omitempty"` // normalized dftsp options
	Code    codeRecord      `json:"code"`
	Prep    circuitRecord   `json:"prep"`
	Layers  []layerRecord   `json:"layers"`
}

// codeRecord stores the full-rank check matrices; logical operator bases and
// the distance are re-derived deterministically by code.New on decode.
type codeRecord struct {
	Name string   `json:"name"`
	Hx   []string `json:"hx"` // rows of the (already rank-reduced) X check matrix
	Hz   []string `json:"hz"` // rows of the Z check matrix
}

// circuitRecord stores a gate list verbatim.
type circuitRecord struct {
	N       int          `json:"n"`
	NumBits int          `json:"num_bits,omitempty"`
	Gates   []gateRecord `json:"gates"`
}

// gateRecord is one gate; Kind uses the circuit.Kind string names
// ("prep_z", "cnot", ...) so files stay debuggable with a pager.
type gateRecord struct {
	Kind string `json:"k"`
	Q    int    `json:"q"`
	Q2   int    `json:"q2,omitempty"`
	Bit  int    `json:"bit,omitempty"`
}

// layerRecord is one verification layer. Classes is keyed by the signature
// key (B|F); encoding/json sorts map keys, keeping the encoding canonical.
type layerRecord struct {
	Detects string                 `json:"detects"` // "X" or "Z"
	Verif   []measurementRecord    `json:"verif"`
	Classes map[string]classRecord `json:"classes"`
}

// measurementRecord is one verification measurement.
type measurementRecord struct {
	Stab    string `json:"stab"` // stabilizer support as a bit string
	Kind    string `json:"kind"` // "X" or "Z"
	Order   []int  `json:"order,omitempty"`
	Flagged bool   `json:"flagged,omitempty"`
}

// classRecord is the correction data of one signature class.
type classRecord struct {
	B       string       `json:"b"`
	F       string       `json:"f,omitempty"`
	Primary *blockRecord `json:"primary,omitempty"`
	Hook    *blockRecord `json:"hook,omitempty"`
}

// blockRecord is a synthesized correction block.
type blockRecord struct {
	Stabs    []string          `json:"stabs,omitempty"`
	Recovery map[string]string `json:"recovery,omitempty"`
}

// Encode serializes a protocol into the on-disk file format: one JSON header
// line (format, version, key, code, params, payload checksum), a newline,
// and the canonical JSON payload. The encoding is deterministic — the same
// protocol and metadata always produce the same bytes — which is what makes
// the store content-addressed and the golden tests byte-exact.
func Encode(meta Meta, p *core.Protocol) ([]byte, error) {
	payload, err := encodePayload(meta, p)
	if err != nil {
		return nil, err
	}
	h := header{
		Format:   Format,
		Version:  Version,
		Key:      meta.Key,
		Code:     p.Code.Name,
		Params:   p.Code.Params(),
		Checksum: payloadSum(payload),
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(hb) + len(payload) + 2)
	buf.Write(hb)
	buf.WriteByte('\n')
	buf.Write(payload)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Checksum returns the payload checksum Encode(meta, p) records in its
// header, "sha256:" and the hex SHA-256 of the payload: the protocol's
// content identity, which job points record (jobs.PointState.Protocol).
func Checksum(meta Meta, p *core.Protocol) (string, error) {
	payload, err := encodePayload(meta, p)
	if err != nil {
		return "", err
	}
	return payloadSum(payload), nil
}

// payloadSum renders the checksum of a payload as the header records it.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

func encodePayload(meta Meta, p *core.Protocol) ([]byte, error) {
	if p == nil || p.Code == nil || p.Prep == nil {
		return nil, fmt.Errorf("store: cannot encode an incomplete protocol")
	}
	rec := record{
		Options: meta.Options,
		Code: codeRecord{
			Name: p.Code.Name,
			Hx:   matRows(p.Code.Hx),
			Hz:   matRows(p.Code.Hz),
		},
		Prep: encodeCircuit(p.Prep),
	}
	for _, l := range p.Layers {
		lr := layerRecord{Detects: l.Detects.String(), Classes: map[string]classRecord{}}
		for _, m := range l.Verif {
			lr.Verif = append(lr.Verif, measurementRecord{
				Stab:    m.Stab.String(),
				Kind:    m.Kind.String(),
				Order:   m.Order,
				Flagged: m.Flagged,
			})
		}
		for key, c := range l.Classes {
			lr.Classes[key] = classRecord{
				B:       c.Sig.B,
				F:       c.Sig.F,
				Primary: encodeBlock(c.Primary),
				Hook:    encodeBlock(c.Hook),
			}
		}
		rec.Layers = append(rec.Layers, lr)
	}
	return json.Marshal(rec)
}

func encodeCircuit(c *circuit.Circuit) circuitRecord {
	cr := circuitRecord{N: c.N, NumBits: c.NumBits}
	for _, g := range c.Gates {
		cr.Gates = append(cr.Gates, gateRecord{Kind: g.Kind.String(), Q: g.Q, Q2: g.Q2, Bit: g.Bit})
	}
	return cr
}

func encodeBlock(b *correct.Block) *blockRecord {
	if b == nil {
		return nil
	}
	br := &blockRecord{}
	for _, s := range b.Stabs {
		br.Stabs = append(br.Stabs, s.String())
	}
	if len(b.Recovery) > 0 {
		br.Recovery = map[string]string{}
		for k, v := range b.Recovery {
			br.Recovery[k] = v.String()
		}
	}
	return br
}

// Decode parses a store file produced by Encode, validating the header
// format, schema version and payload checksum before touching the payload.
// Unsupported versions return ErrVersion; any other malformation — bad
// header, checksum mismatch, truncation, malformed payload — returns
// ErrCorrupt. Both are typed so callers can distinguish "re-synthesize and
// overwrite" from "operator shipped files from a newer build".
func Decode(data []byte) (*core.Protocol, Meta, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, Meta{}, corrupt("missing header line")
	}
	var h header
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, Meta{}, corrupt("bad header: %v", err)
	}
	if h.Format != Format {
		return nil, Meta{}, corrupt("format %q, want %q", h.Format, Format)
	}
	if h.Version != Version {
		return nil, Meta{}, fmt.Errorf("%w: file version %d, this build reads version %d", ErrVersion, h.Version, Version)
	}
	payload := bytes.TrimSuffix(data[nl+1:], []byte("\n"))
	if got := payloadSum(payload); got != h.Checksum {
		return nil, Meta{}, corrupt("checksum mismatch: file says %s, payload hashes to %s", h.Checksum, got)
	}
	var rec record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, Meta{}, corrupt("bad payload: %v", err)
	}
	p, err := decodeRecord(&rec)
	if err != nil {
		return nil, Meta{}, err
	}
	meta := Meta{Key: h.Key, Code: h.Code, Params: h.Params, Options: rec.Options}
	return p, meta, nil
}

func decodeRecord(rec *record) (*core.Protocol, error) {
	hx, err := matFromRows(rec.Code.Hx)
	if err != nil {
		return nil, corrupt("code hx: %v", err)
	}
	hz, err := matFromRows(rec.Code.Hz)
	if err != nil {
		return nil, corrupt("code hz: %v", err)
	}
	cs, err := code.New(rec.Code.Name, hx, hz)
	if err != nil {
		return nil, corrupt("rebuilding code: %v", err)
	}
	prep, err := decodeCircuit(rec.Prep)
	if err != nil {
		return nil, err
	}
	// The simulators index code-length vectors by prep qubit, so a wider
	// circuit would panic there rather than fail here.
	if prep.N != cs.N {
		return nil, corrupt("preparation circuit has %d wires for a %d-qubit code", prep.N, cs.N)
	}
	p := &core.Protocol{Code: cs, Prep: prep}
	for li, lr := range rec.Layers {
		l := &core.Layer{Classes: map[string]*core.ClassCorrection{}}
		switch lr.Detects {
		case "X":
			l.Detects = code.ErrX
		case "Z":
			l.Detects = code.ErrZ
		default:
			return nil, corrupt("layer %d: unknown sector %q", li, lr.Detects)
		}
		for mi, mr := range lr.Verif {
			m, err := decodeMeasurement(mr, cs.N)
			if err != nil {
				return nil, corrupt("layer %d measurement %d: %v", li, mi, err)
			}
			l.Verif = append(l.Verif, m)
		}
		for key, cr := range lr.Classes {
			cc := &core.ClassCorrection{Sig: core.Signature{B: cr.B, F: cr.F}}
			if cc.Sig.Key() != key {
				return nil, corrupt("layer %d: class key %q disagrees with signature %q", li, key, cc.Sig.Key())
			}
			if cc.Primary, err = decodeBlock(cr.Primary, cs.N); err != nil {
				return nil, corrupt("layer %d class %q primary: %v", li, key, err)
			}
			if cc.Hook, err = decodeBlock(cr.Hook, cs.N); err != nil {
				return nil, corrupt("layer %d class %q hook: %v", li, key, err)
			}
			l.Classes[key] = cc
		}
		p.Layers = append(p.Layers, l)
	}
	return p, nil
}

func decodeMeasurement(mr measurementRecord, n int) (core.Measurement, error) {
	stab, err := vecFromString(mr.Stab, n)
	if err != nil {
		return core.Measurement{}, err
	}
	for _, q := range mr.Order {
		if q < 0 || q >= n {
			return core.Measurement{}, fmt.Errorf("order qubit %d out of range [0,%d)", q, n)
		}
	}
	m := core.Measurement{Stab: stab, Order: mr.Order, Flagged: mr.Flagged}
	switch mr.Kind {
	case "X":
		m.Kind = code.ErrX
	case "Z":
		m.Kind = code.ErrZ
	default:
		return core.Measurement{}, fmt.Errorf("unknown measurement kind %q", mr.Kind)
	}
	return m, nil
}

func decodeBlock(br *blockRecord, n int) (*correct.Block, error) {
	if br == nil {
		return nil, nil
	}
	b := &correct.Block{Recovery: map[string]f2.Vec{}}
	for _, s := range br.Stabs {
		v, err := vecFromString(s, n)
		if err != nil {
			return nil, err
		}
		b.Stabs = append(b.Stabs, v)
	}
	for key, s := range br.Recovery {
		if len(key) != len(br.Stabs) {
			return nil, fmt.Errorf("syndrome key %q has %d bits for %d measurements", key, len(key), len(br.Stabs))
		}
		v, err := vecFromString(s, n)
		if err != nil {
			return nil, err
		}
		b.Recovery[key] = v
	}
	return b, nil
}

func decodeCircuit(cr circuitRecord) (*circuit.Circuit, error) {
	if cr.N <= 0 {
		return nil, corrupt("circuit has %d wires", cr.N)
	}
	if cr.NumBits < 0 {
		return nil, corrupt("circuit has %d classical bits", cr.NumBits)
	}
	c := &circuit.Circuit{N: cr.N, NumBits: cr.NumBits}
	// The simulators execute exactly the gates synthesis emits into a
	// preparation circuit; anything else, a measurement included, would
	// panic there rather than fail here.
	kinds := map[string]circuit.Kind{
		circuit.PrepZ.String(): circuit.PrepZ,
		circuit.PrepX.String(): circuit.PrepX,
		circuit.H.String():     circuit.H,
		circuit.CNOT.String():  circuit.CNOT,
	}
	for i, gr := range cr.Gates {
		k, ok := kinds[gr.Kind]
		if !ok {
			return nil, corrupt("gate %d: %q is not a preparation gate", i, gr.Kind)
		}
		if gr.Q < 0 || gr.Q >= cr.N || gr.Q2 < 0 || gr.Q2 >= cr.N {
			return nil, corrupt("gate %d: qubit out of range [0,%d)", i, cr.N)
		}
		c.Gates = append(c.Gates, circuit.Gate{Kind: k, Q: gr.Q, Q2: gr.Q2, Bit: gr.Bit})
	}
	return c, nil
}

func matRows(m *f2.Mat) []string {
	rows := make([]string, 0, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		rows = append(rows, m.Row(i).String())
	}
	return rows
}

func matFromRows(rows []string) (*f2.Mat, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("no rows")
	}
	return f2.MatFromStrings(rows...)
}

func vecFromString(s string, n int) (f2.Vec, error) {
	v, err := f2.FromString(s)
	if err != nil {
		return f2.Vec{}, err
	}
	if v.Len() != n {
		return f2.Vec{}, fmt.Errorf("vector %q has length %d, want %d", s, v.Len(), n)
	}
	return v, nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}
