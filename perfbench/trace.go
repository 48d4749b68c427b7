package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls (client requests, in-process layer calls) or copied from
// the server's /debug/traces. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out once
// at exit. A nil *tracer records nothing, which is how the untraced run
// calls the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name, trace string, parent int) int {
	now := time.Now()
	return t.add(name, trace, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNS is the length of the union of the children's intervals, each
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curLo, curHi, started = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// durations returns, per span name, the summed span durations in seconds.
func (t *tracer) durations() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"started": t.t0, "spans": t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
