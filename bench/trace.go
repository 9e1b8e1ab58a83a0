package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around a call into the program.  Start and End
// are nanoseconds since the tracer was created; Parent is the index of
// the span that caused this one (-1 for a root); Request ties the spans
// of one request together (-1 when the span belongs to no request).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// untraced run: begin and end do nothing, so the measured path pays one
// nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, to pass to end and, as
// parent, to the spans it causes.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Request: request})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count int
	Total float64   // summed duration, ns
	Self  float64   // summed self time, ns
	Durs  []float64 // every duration, ns, in recording order
}

// selfTimes groups spans by name.  A span's self time is its duration
// minus the part of its interval its direct children cover; overlapping
// children (parallel workers under one parent) are merged first, so the
// covered part is never counted twice and self time is never negative.
func selfTimes(spans []span) map[string]*spanTotals {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[string]*spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		dur := s.End - s.Start
		t.Count++
		t.Total += float64(dur)
		t.Self += float64(dur - covered(children[i]))
		t.Durs = append(t.Durs, float64(dur))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
