package jobs

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/shardrpc"
)

// LeaseTTLEnv is the environment variable overriding the remote lease TTL
// (a time.ParseDuration string, e.g. "750ms"); unset or unparseable selects
// shardrpc.DefaultTTL. Short TTLs make chaos tests converge fast; long ones
// tolerate slow networks.
const LeaseTTLEnv = "DFTSP_LEASE_TTL"

// RemoteStatus reports the remote shard-dispatch state of a runner with an
// active workers listener.
type RemoteStatus struct {
	// Addr is the listener's bound address (useful when the configured
	// address was ":0").
	Addr string `json:"addr"`

	// Workers is the number of currently registered remote workers.
	Workers int `json:"workers"`

	// Leases is the number of shards currently leased to remote workers —
	// in a Status it is scoped to that job; in Remote() it is the global
	// count an ordered drain watches quiesce to zero.
	Leases int `json:"leases"`

	// Idle is the number of lease long-polls currently parked at the
	// coordinator — connected remote capacity waiting for work. Newly
	// offered shards are granted straight to parked polls, so a nonzero
	// Idle means the next shard goes remote.
	Idle int `json:"idle"`
}

// StartRemote opens the remote shard-dispatch listener on the runner's
// remoteAddr (the server's -workers-addr) and serves the runner's shard
// queue there: registered cmd/worker processes lease shards from the same
// queue the local pool leases from, so zero connected workers executes
// exactly like a runner without a listener. protocol, when non-nil, serves
// store-encoded protocol bytes to workers that cannot resolve a key from
// their own catalog. With an empty remoteAddr StartRemote is a no-op.
// Call it before the first Submit and at most once.
func (r *Runner) StartRemote(protocol func(key string) ([]byte, error)) error {
	if r.remoteAddr == "" {
		return nil
	}
	if r.remoteLn != nil {
		return fmt.Errorf("jobs: remote dispatch already started on %s", r.remoteLn.Addr())
	}
	ln, err := net.Listen("tcp", r.remoteAddr)
	if err != nil {
		return fmt.Errorf("jobs: workers listener: %w", err)
	}
	r.protocol = protocol
	r.remoteLn = ln
	r.remoteSrv = &http.Server{Handler: r.queue.Handler()}
	go r.remoteSrv.Serve(ln)
	return nil
}

// encodedProtocol answers the queue's protocol endpoint with the function
// StartRemote was given.
func (r *Runner) encodedProtocol(key string) ([]byte, error) {
	if r.protocol == nil {
		return nil, fmt.Errorf("jobs: no protocol source for %q", key)
	}
	return r.protocol(key)
}

// Remote reports the runner's remote dispatch state (global lease count),
// and whether a workers listener is active.
func (r *Runner) Remote() (RemoteStatus, bool) {
	if r.remoteLn == nil {
		return RemoteStatus{}, false
	}
	workers, leases := r.queue.Stats()
	return RemoteStatus{
		Addr:    r.remoteLn.Addr().String(),
		Workers: workers,
		Leases:  leases,
		Idle:    r.queue.Idle(),
	}, true
}

// annotate attaches the remote dispatch state to a job's status, scoping
// the lease count to that job.
func (r *Runner) annotate(st Status) Status {
	rs, ok := r.Remote()
	if !ok {
		return st
	}
	rs.Leases = r.queue.JobLeases(st.ID)
	st.Remote = &rs
	return st
}

// leaseTTL resolves the remote lease TTL from LeaseTTLEnv.
func leaseTTL() time.Duration {
	if v := os.Getenv(LeaseTTLEnv); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return shardrpc.DefaultTTL
}
