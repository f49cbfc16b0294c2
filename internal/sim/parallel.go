package sim

import (
	"os"
	"runtime"
	"strconv"
)

// WorkersEnv is the environment variable consulted by DefaultWorkers for the
// estimation worker count.
const WorkersEnv = "DFTSP_WORKERS"

// DefaultWorkers returns the worker count the adaptive estimator
// (AdaptiveModel, RareEventAdaptiveModel) uses when the caller passes
// workers <= 0: the value of the DFTSP_WORKERS environment variable when set
// to a positive integer, otherwise runtime.NumCPU().
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// ctxPollShots is the number of shots a sampling worker runs between context
// polls: frequent enough that cancellation lands within milliseconds, rare
// enough that the poll is invisible in the shot throughput.
const ctxPollShots = 64
