package sim

// Engine names the Monte-Carlo engine an Estimator samples on. The 64-lane
// batch engine on the compiled Batch is the only one: a protocol past its
// packing limits is refused (ErrNotCompiled), not sampled another way. The
// name stays part of job specs, shard tasks and estimate results, where
// the "scalar" engine of earlier builds may still be recorded.
type Engine uint8

// EngineBatch is the 64-lane bit-parallel engine on the compiled Batch.
const EngineBatch Engine = 1

// String returns the engine's name, "batch".
func (Engine) String() string { return "batch" }

// EngineInUse reports the engine the sampling entry points run: always
// EngineBatch.
func (est *Estimator) EngineInUse() Engine { return EngineBatch }

// BatchStream is the version of the batch engine's sampled stream. It
// changes whenever one seed makes the 64-lane engine draw different
// faults, so a checkpointed job can tell shards it may pool from shards it
// must redraw. Version 2 runs each correction block once per class over
// all of the class's triggered lanes; the unversioned stream before it ran
// each triggered lane's blocks alone. Version 0, recorded by earlier
// builds, is that unversioned stream or the stream of the scalar engine
// they ran past the packing limits.
const BatchStream = 2
