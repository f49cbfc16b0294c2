package shardrpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// postEndpoints are the five POST endpoints of the lease protocol.
var postEndpoints = []string{"register", "lease", "heartbeat", "complete", "deregister"}

// post sends body to a POST endpoint of h and returns the recorded answer.
func post(h http.Handler, endpoint string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathPrefix+endpoint, bytes.NewReader(body)))
	return rec
}

// TestHandlerBodyTooLarge sends a well-formed complete whose strata push
// it past maxBodyBytes: the answer is 413 with the JSON error body, and
// the task is not delivered.
func TestHandlerBodyTooLarge(t *testing.T) {
	c, _, _ := testCoord(t, Config{})
	wid, _, _ := c.Register("big")
	ch := offer(c, testTask("t1"))
	lease, _ := c.Lease(wid, 0)

	var body strings.Builder
	body.WriteString(`{"worker_id":"` + wid + `","task_id":"t1","gen":1,"counts":{"shots":4096,"fails":0,"strata":[`)
	for i := 0; body.Len() <= maxBodyBytes; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"w":1,"shots":0,"fails":0}`)
	}
	body.WriteString(`]}}`)

	rec := post(c.Handler(), "complete", []byte(body.String()))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized complete = %d, want 413", rec.Code)
	}
	var resp errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || resp.Error == "" {
		t.Fatalf("413 body: %+v, %v", resp, err)
	}
	expectNone(t, ch)

	// The lease is still held and completes normally.
	if dup, err := c.Complete(wid, "t1", lease.Gen, goodCounts(2)); err != nil || dup {
		t.Fatalf("complete after 413: dup=%v err=%v", dup, err)
	}
	expectDelivered(t, ch, goodCounts(2))
}

// FuzzHandler sends arbitrary bytes to one of the POST endpoints of a
// fresh coordinator with worker w1 registered and one task pending, so a
// valid lease is granted at once. Whatever the bytes, the handler must not
// panic or answer 500, and the task is delivered at most once before Close
// and exactly once after it. The seeds are the example bodies of
// docs/shard-protocol.md.
func FuzzHandler(f *testing.F) {
	f.Add(uint8(0), []byte(`{"name":"worker-a"}`))
	f.Add(uint8(1), []byte(`{"worker_id":"w1","wait_ms":0}`))
	f.Add(uint8(2), []byte(`{"worker_id":"w1","task_id":"t1","gen":1}`))
	f.Add(uint8(3), []byte(`{"worker_id":"w1","task_id":"t1","gen":1,"counts":{"shots":4096,"fails":3,"strata":[{"w":1,"shots":4096,"fails":3}]}}`))
	f.Add(uint8(4), []byte(`{"worker_id":"w1"}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		c := NewCoordinator(Config{Now: newFakeClock().Now})
		defer c.Close()
		if wid, _, err := c.Register("fuzz"); err != nil || wid != "w1" {
			t.Fatalf("register = %q, %v", wid, err)
		}
		var delivered atomic.Int32
		c.Offer(nil, testTask("t1"), nil, func(sim.Counts, error) { delivered.Add(1) })

		rec := post(c.Handler(), postEndpoints[int(endpoint)%len(postEndpoints)], body)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if n := delivered.Load(); n > 1 {
			t.Fatalf("task delivered %d times", n)
		}
		c.Close()
		if n := delivered.Load(); n != 1 {
			t.Fatalf("task delivered %d times after close, want 1", n)
		}
	})
}
