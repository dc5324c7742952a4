package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions and hooks;
// the program itself carries no tracing.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Item is the triple (solve workloads) or request (serve-cluster) the
	// span belongs to.
	Item  int   `json:"item"`
	Start int64 `json:"start"` // ns since the trace origin
	End   int64 `json:"end"`
	// Count and Busy describe an aggregate span: Count calls folded into
	// one record (per-call propose spans are folded per search phase),
	// whose summed duration is Busy. Start and End bound the first and
	// last call. A plain span has Count 0.
	Count int64 `json:"count,omitempty"`
	Busy  int64 `json:"busy,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the parent's duration minus the part of it its children
// cover. Plain children may overlap each other (island initializers run
// concurrently), so they count as the union of their intervals, clipped
// to the parent. Aggregate children count their Busy time: their folded
// calls run one after another on the search goroutine, so they overlap
// neither each other nor any plain child.
func selfTime(parent span, children []span) int64 {
	var ivs [][2]int64
	var busy int64
	for _, c := range children {
		if c.Count > 0 {
			busy += c.Busy
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var union int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				union += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if curHi > curLo {
		union += curHi - curLo
	}
	return max(parent.dur()-union-busy, 0)
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// at converts a clock reading to trace time.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.origin).Nanoseconds() }

// reserve hands out a span ID before the span ends, so children recorded
// while it runs can name it as parent.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; a zero ID is assigned a fresh one.
func (t *tracer) add(s span) int {
	if s.ID == 0 {
		s.ID = t.reserve()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// interval records a plain span from two clock readings.
func (t *tracer) interval(parent int, name string, item int, start, end time.Time) int {
	return t.add(span{Parent: parent, Name: name, Item: item, Start: t.at(start), End: t.at(end)})
}

// children groups the recorded spans by parent ID.
func (t *tracer) children() map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]span)
	for _, s := range t.spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// named returns the recorded spans with the given name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
