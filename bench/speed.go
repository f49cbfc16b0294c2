package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// refNominal is the reference round trip's duration at the speed the
// benchmark reports times for. Every timed unit is scaled by refNominal
// over the reference measured around it: on a shared machine whose speed
// drifts by ±20% within seconds, the scaled times repeat within a few
// percent while still moving with every change to the program itself.
const refNominal = 250 * time.Microsecond

// A reference sample is the median of refRoundTrips round trips, after
// refWarmTrips unmeasured ones: after the benchmark has waited on a long
// request its threads sleep, and the first round trips would measure how
// long the machine takes to wake them rather than how fast it runs.
const (
	refRoundTrips = 5
	refWarmTrips  = 2
)

// platformRef is the benchmark's speed reference: a loopback HTTP round
// trip to a server inside the benchmark whose handler decodes a small JSON
// body, fills a map and sorts 2000 pseudo-random values, hashes 16 KiB and
// encodes a 1 KiB JSON answer — the mix of system calls, allocation and
// computation the program's own requests are made of. It shares no code with
// the program under test, so no change to the program can move it.
type platformRef struct {
	srv    *http.Server
	served chan struct{}
	url    string
	hc     *http.Client
	all    []time.Duration // every sample, for the report
	err    error           // the first failed round trip
}

func newPlatformRef() (*platformRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 16<<10)
	text := strings.Repeat("x", 1024)
	p := &platformRef{
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		hc:     &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct{ Seed uint64 }
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		xs := make([]int, 2000)
		m := map[uint64]int{}
		x := in.Seed
		for i := range xs {
			x = x*6364136223846793005 + 1442695040888963407
			xs[i] = int(x >> 20)
			m[x%512] += i
		}
		sort.Ints(xs)
		sum := sha256.Sum256(payload)
		_ = json.NewEncoder(w).Encode(struct {
			Head []int    `json:"head"`
			Keys int      `json:"keys"`
			Sum  [32]byte `json:"sum"`
			Text string   `json:"text"`
		}{xs[:32], len(m), sum, text})
	})}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	p.sample() // the first round trip pays for the connection
	p.all = nil
	if p.err != nil {
		p.close()
		return nil, p.err
	}
	return p, nil
}

// sample measures the reference now. A failed round trip is kept in err, which fails the run, and the
// sample reads refNominal.
func (p *platformRef) sample() time.Duration {
	ds := make([]float64, refWarmTrips+refRoundTrips)
	for i := range ds {
		t0 := time.Now()
		resp, err := p.hc.Post(p.url, "application/json", strings.NewReader(`{"Seed":7}`))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			if p.err == nil {
				p.err = fmt.Errorf("speed reference: %w", err)
			}
			return refNominal
		}
		ds[i] = float64(time.Since(t0))
	}
	d := time.Duration(median(ds[refWarmTrips:]))
	p.all = append(p.all, d)
	return d
}

func (p *platformRef) close() {
	_ = p.srv.Close() // only the listener and idle connections remain
	<-p.served
	p.hc.CloseIdleConnections()
}

// scale converts a duration measured between the reference samples before
// and after it to reference speed.
func scale(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / (float64(before+after) / 2))
}
