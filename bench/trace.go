package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the public function it calls. Spans of one replayed
// request share Req; Parent is the ID of the span that made the call (0 for
// a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`

	// DupOf names a sibling span that repeats this span's work inside a
	// call the benchmark cannot see into: the replay times verify.Synthesize
	// on its own, and core.BuildFromPrep runs it again internally. Self-time
	// accounting keeps the duplicate's time in its own layer and subtracts
	// it from that sibling and from the root, so each piece of work is
	// counted once.
	DupOf string `json:"dup_of,omitempty"`
}

// layer returns the layer a span belongs to: its name up to the first dot.
func (s Span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

func (s Span) dur() int64 { return s.End - s.Start }

// rootName is the name of a replayed request's root span. Its self time is
// the benchmark's own glue between layer calls.
const rootName = "bench.request"

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the replay runs untraced. It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// dup closes a span and marks it as repeating work that the sibling span
// named of also performs.
func (t *tracer) dup(id int, of string) {
	if t == nil || id == 0 {
		return
	}
	t.end(id)
	t.spans[id-1].DupOf = of
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its children (overlapping children are merged),
// with duplicate spans subtracted from the sibling they repeat. It also
// returns the effective duration of each root: its duration minus its
// duplicates.
func selfTimes(spans []Span) (self map[int]int64, effRoot map[int]int64) {
	byID := map[int]Span{}
	children := map[int][]Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[int]int64{}
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	effRoot = map[int]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			effRoot[s.ID] = s.dur()
		}
	}
	for _, s := range spans {
		if s.DupOf == "" {
			continue
		}
		for _, sib := range children[s.Parent] {
			if sib.Name == s.DupOf {
				self[sib.ID] -= s.dur()
				break
			}
		}
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		effRoot[root.ID] -= s.dur()
	}
	return self, effRoot
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerStats aggregates one layer of a replay.
type layerStats struct {
	Calls int
	Self  int64 // ns
}

// traceLayers are the layers whose share of a replay is reported, in
// reporting order; "bench" is the root spans' self time.
var traceLayers = []string{"dftsp", "code", "store", "prep", "verify", "core", "sim", "jobs", "shardrpc", "bench"}

// summarize aggregates the spans under request roots (rootName) by layer
// and returns the total effective root time they add up to.
func summarize(spans []Span) (layers map[string]layerStats, total int64) {
	self, effRoot := selfTimes(spans)
	inRequest := map[int]bool{}
	for _, s := range spans { // spans are recorded parent-first
		if (s.Parent == 0 && s.Name == rootName) || inRequest[s.Parent] {
			inRequest[s.ID] = true
		}
	}
	layers = map[string]layerStats{}
	for _, s := range spans {
		if !inRequest[s.ID] {
			continue
		}
		if s.Parent == 0 {
			total += effRoot[s.ID]
		}
		ls := layers[s.layer()]
		ls.Calls++
		ls.Self += self[s.ID]
		layers[s.layer()] = ls
	}
	return layers, total
}

// spanDurations returns the durations in ns of every span with the given
// name.
func spanDurations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeSpans writes the trace file: the run's identity and every span.
func writeSpans(path, workload string, seed int64, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
