package main

import (
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's tracer. Spans are recorded by the
// benchmark's own code around each call it makes into a layer (the
// program itself is not instrumented), kept in memory, and reduced to
// per-name self times when the run ends.

// span is one timed call: a name, its interval, and the span that
// caused it (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records spans; a nil tracer records nothing, which is how
// untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its id (-1 when tracing is
// off). Ids are indices, so a child can name its parent before the
// parent ends.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-measured span (the store wrapper learns a
// simulation's start and end only after the fact).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (parallel simulations under one prefetch), so the covered part
// is the length of the union of their intervals, clipped to the parent;
// a self time is therefore never negative and never exceeds the span's
// own duration.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		dur := s.end.Sub(s.start)
		if dur < 0 {
			dur = 0
		}
		out[i] = dur - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfByName sums self times per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.name] += self[i].Seconds()
	}
	return out
}
