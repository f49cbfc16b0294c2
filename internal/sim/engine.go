package sim

import (
	"errors"
	"fmt"
)

// Engine selects the Monte-Carlo sampling engine of an Estimator. Both
// engines execute a compiled protocol on the one compiled executor, Batch:
// the batch engine 64 shots per word, the scalar engine one shot at a time
// as the batch engine's lane 0.
type Engine uint8

// Engine values.
const (
	// EngineAuto picks the fastest available engine: the 64-lane batch
	// engine when the protocol compiled, else the scalar engine on the
	// interpreted executor.
	EngineAuto Engine = iota

	// EngineScalar forces the scalar engine: one shot at a time, drawing
	// each location's fault from a scalar noise.Injector — lane 0 of the
	// batch engine when the protocol compiled, the interpreted executor
	// otherwise. Both draw the same stream and give bit-identical shots.
	EngineScalar

	// EngineBatch requires the 64-lane bit-parallel engine; selecting it
	// on an estimator whose protocol did not compile is an error.
	EngineBatch
)

// ErrEngineUnavailable rejects an explicit EngineBatch selection when the
// protocol exceeded the compiled engine's packing limits.
var ErrEngineUnavailable = errors.New("sim: batch engine unavailable for this protocol")

// ParseEngine resolves an engine name: "" and "auto" select EngineAuto,
// "scalar" and "batch" their engines.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "scalar":
		return EngineScalar, nil
	case "batch":
		return EngineBatch, nil
	}
	return EngineAuto, fmt.Errorf("sim: unknown engine %q (want auto, scalar or batch)", s)
}

// String returns the engine's ParseEngine name.
func (e Engine) String() string {
	switch e {
	case EngineScalar:
		return "scalar"
	case EngineBatch:
		return "batch"
	default:
		return "auto"
	}
}

// WithEngine returns an estimator that samples on engine e and shares
// everything else with est: protocol, decoder, compiled program and batch
// engine, location kinds, single-fault table and gap tables. Selecting
// EngineBatch on an estimator whose protocol fell back to the interpreted
// executor returns ErrEngineUnavailable.
func (est *Estimator) WithEngine(e Engine) (*Estimator, error) {
	if e == EngineBatch && est.batch == nil {
		return nil, ErrEngineUnavailable
	}
	if e == est.engine {
		return est, nil
	}
	view := *est
	view.engine = e
	return &view, nil
}

// EngineInUse reports the engine the sampling entry points will actually
// run: the auto selection resolved against what compiled.
func (est *Estimator) EngineInUse() Engine {
	if est.useBatch() {
		return EngineBatch
	}
	return EngineScalar
}

// BatchStream is the version of the batch engine's sampled stream. It
// changes whenever one seed makes the 64-lane engine draw different
// faults, so a checkpointed job can tell shards it may pool from shards it
// must redraw. Version 2 runs each correction block once per class over
// all of the class's triggered lanes; the unversioned stream before it ran
// each triggered lane's blocks alone. The scalar engines' streams have
// never changed and carry no version.
const BatchStream = 2

// Stream reports the version of the sampled stream the sampling entry
// points draw: BatchStream on the batch engine, 0 on the scalar engines.
func (est *Estimator) Stream() int {
	if est.useBatch() {
		return BatchStream
	}
	return 0
}

// useBatch reports whether direct Monte-Carlo sampling should run on the
// 64-lane engine.
func (est *Estimator) useBatch() bool {
	if est.engine == EngineScalar {
		return false
	}
	return est.batch != nil
}
