package sim

// Engine reports the Monte-Carlo engine an Estimator samples on. It is a
// fact of the protocol, not a choice: the 64-lane batch engine when the
// protocol compiled, the scalar engine — the interpreted executor, one shot
// at a time — past the compiled engine's packing limits.
type Engine uint8

// Engine values.
const (
	// EngineScalar is the interpreted executor, drawing each location's
	// fault from a scalar noise.Injector one shot at a time.
	EngineScalar Engine = iota

	// EngineBatch is the 64-lane bit-parallel engine on the compiled Batch.
	EngineBatch
)

// String returns the engine's name: "scalar" or "batch".
func (e Engine) String() string {
	if e == EngineBatch {
		return "batch"
	}
	return "scalar"
}

// EngineInUse reports the engine the sampling entry points run: batch when
// the protocol compiled, scalar otherwise.
func (est *Estimator) EngineInUse() Engine {
	if est.batch != nil {
		return EngineBatch
	}
	return EngineScalar
}

// BatchStream is the version of the batch engine's sampled stream. It
// changes whenever one seed makes the 64-lane engine draw different
// faults, so a checkpointed job can tell shards it may pool from shards it
// must redraw. Version 2 runs each correction block once per class over
// all of the class's triggered lanes; the unversioned stream before it ran
// each triggered lane's blocks alone. The scalar engine's stream has never
// changed and carries no version.
const BatchStream = 2

// Stream reports the version of the sampled stream the sampling entry
// points draw: BatchStream on the batch engine, 0 on the scalar engine.
func (est *Estimator) Stream() int {
	if est.batch != nil {
		return BatchStream
	}
	return 0
}
