// Package dftsp is the public facade of the deterministic fault-tolerant
// state-preparation toolkit (conf_date_SchmidPBMW25). It wires the full
// pipeline of the paper behind one Options struct:
//
//	code selection → preparation synthesis → verification synthesis →
//	correction synthesis → FT certification → QASM export → error-rate
//	estimation
//
// Key entry points (the v2 API — context-first and typed-error based):
//
//   - Synthesize: build the complete protocol for an Options value;
//   - Protocol.Certify: the exhaustive single-fault FT certificate;
//   - Protocol.Estimate: logical error rates (stratified and Monte-Carlo);
//   - Protocol.WriteQASM: OpenQASM 2.0 export of the static circuit;
//   - Service: a synthesis server core with an in-memory protocol cache,
//     request coalescing, batch jobs, a bounded estimation worker pool and
//     an optional persistent protocol store (AttachStore / WarmStart) so
//     synthesized protocols survive restarts;
//   - Search: CSS code discovery with exact distance certification.
//
// Every CPU-heavy entry point takes a context.Context as its first argument
// and honors cancellation deep in the hot paths: the CDCL SAT solver polls
// the context in its conflict loop, the Monte-Carlo workers between shot
// batches, and the stratified estimator between fault enumerations, so a
// cancelled request stops burning CPU within milliseconds. Failures carry
// the typed taxonomy of errors.go (ErrBadOptions, ErrUnknownCode,
// ErrSynthesis, ErrCertification), matchable with errors.Is/As.
//
// The command-line binaries under cmd/ (dftsp, table1, fig4, codesearch,
// server) are thin flag/HTTP wrappers over this package.
package dftsp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Protocol is a synthesized deterministic fault-tolerant preparation
// protocol together with the normalized options that produced it.
type Protocol struct {
	// Core is the underlying protocol object; it exposes the full internal
	// structure (preparation circuit, verification layers, correction
	// blocks) for advanced use inside this module.
	Core *core.Protocol

	// Options is the normalized configuration the protocol was built from.
	Options Options

	// est is the estimation state every Estimate call on this protocol
	// shares (estimate.go); its zero value is ready, so a Protocol literal
	// built from Core and Options estimates like a synthesized one.
	est estimateState
}

// Synthesize builds the complete deterministic fault-tolerant preparation
// protocol for |0...0>_L of the code selected by opts: the non-FT
// preparation circuit, per-sector verification layers with flag-qubit hook
// protection, and SAT-synthesized corrections for every verification
// signature. Synthesis is CPU-heavy (it runs a SAT solver); cache results or
// use a Service when serving repeated requests.
//
// ctx is honored deep inside the synthesis: cancelling it (or letting its
// deadline pass) aborts the SAT conflict loop promptly, and the returned
// error matches context.Canceled / context.DeadlineExceeded via errors.Is.
// Invalid opts wrap ErrBadOptions; genuine synthesis failures wrap
// ErrSynthesis.
func Synthesize(ctx context.Context, opts Options) (*Protocol, error) {
	return synthesize(ctx, opts, nil)
}

// synthesize is Synthesize with the correction problems answered through
// memo; nil solves each one afresh.
func synthesize(ctx context.Context, opts Options, memo *correct.Memo) (*Protocol, error) {
	n, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	cs, err := n.buildCode()
	if err != nil {
		return nil, err
	}
	if err := checkSpans(cs); err != nil {
		return nil, err
	}
	cfg := n.coreConfig()
	cfg.Memo = memo
	p, err := core.Build(ctx, cs, cfg)
	if err != nil {
		return nil, synthesisError(err)
	}
	return &Protocol{Core: p, Options: n}, nil
}

// CodeName returns the name of the protocol's code.
func (p *Protocol) CodeName() string { return p.Core.Code.Name }

// CodeParams returns the [[n,k,d]] parameter string of the protocol's code.
func (p *Protocol) CodeParams() string { return p.Core.Code.Params() }

// Summary returns the compact one-line protocol description (code, prep
// CNOTs, per-layer measurement/flag/class counts).
func (p *Protocol) Summary() string { return p.Core.String() }

// MetricsRow returns the protocol's Table-I-style metrics row.
func (p *Protocol) MetricsRow() string { return p.Core.ComputeMetrics().FormatRow() }

// Describe returns a multi-line human-readable report: the static circuit
// size and, per verification layer, every measurement with its support,
// weight and flag status, plus the correction class count.
func (p *Protocol) Describe() string {
	var sb strings.Builder
	flat := p.Core.FlatCircuit()
	fmt.Fprintf(&sb, "static circuit: %d wires, %d CNOTs, depth %d\n", flat.N, flat.CNOTCount(), flat.Depth())
	for li, l := range p.Core.Layers {
		fmt.Fprintf(&sb, "layer %d (%v errors):\n", li+1, l.Detects)
		for mi, m := range l.Verif {
			flagged := ""
			if m.Flagged {
				flagged = " [flagged]"
			}
			fmt.Fprintf(&sb, "  verify %d: %s (weight %d)%s\n", mi+1, supportString(m.Stab), m.Weight(), flagged)
		}
		fmt.Fprintf(&sb, "  %d correction classes\n", len(l.Classes))
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Certify runs the exhaustive single-fault FT certificate (Definition 1,
// t = 1): every possible single fault at every location is enumerated, and
// each residual error must have stabilizer-reduced weight <= 1 in both
// sectors. A nil error is a machine-checked proof of strict fault tolerance;
// a failure wraps ErrCertification.
func (p *Protocol) Certify() error {
	if err := sim.ExhaustiveFaultCheck(p.Core); err != nil {
		return fmt.Errorf("%w: %w", ErrCertification, err)
	}
	return nil
}

// FaultLocations returns the number of fault locations on the fault-free
// path (the N of the stratified estimator).
func (p *Protocol) FaultLocations() int { return sim.Locations(p.Core) }

// WriteQASM writes the static part of the protocol (preparation plus
// verification measurements) as an OpenQASM 2.0 program.
func (p *Protocol) WriteQASM(w io.Writer) error {
	return qasm.Export(w, p.Core.FlatCircuit(), p.Core.Code.Name+" |0>_L deterministic FT preparation")
}

// QASM returns the OpenQASM 2.0 export as a string.
func (p *Protocol) QASM() (string, error) {
	var sb strings.Builder
	if err := p.WriteQASM(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func supportString(v f2.Vec) string {
	parts := make([]string, 0, v.Weight())
	for _, q := range v.Support() {
		parts = append(parts, fmt.Sprintf("%d", q+1))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
