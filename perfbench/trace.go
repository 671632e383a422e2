package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it invokes. Spans of one operation share Op; a
// root span (Parent -1) covers the whole operation.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // set by withSelf
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	t0     time.Time
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call runs f inside a span named name.
func (t *tracer) call(name string, op int64, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id)
	return err
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range withSelf(t.closed()) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates closed spans by name, by operation and over the
// operations' root spans.
type spanSummary struct {
	total    map[string]int64 // ns per span name
	self     map[string]int64 // ns of self time per span name
	rootNs   int64            // summed duration of root spans
	rootSelf int64            // summed self time of root spans
	roots    int
	selfSum  map[int64]int64 // per op: summed self time of all its spans
	rootDur  map[int64]int64 // per op: root span duration
}

// withSelf fills in every span's self time: its duration minus the part
// of it its children cover.
func withSelf(spans []span) []span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range spans {
		spans[i].Self = s.End - s.Start - covered(s, children[s.ID])
	}
	return spans
}

func summarize(spans []span) spanSummary {
	sum := spanSummary{
		total:   map[string]int64{},
		self:    map[string]int64{},
		selfSum: map[int64]int64{},
		rootDur: map[int64]int64{},
	}
	for _, s := range withSelf(spans) {
		dur := s.End - s.Start
		sum.total[s.Name] += dur
		sum.self[s.Name] += s.Self
		sum.selfSum[s.Op] += s.Self
		if s.Parent < 0 {
			sum.roots++
			sum.rootNs += dur
			sum.rootSelf += s.Self
			sum.rootDur[s.Op] += dur
		}
	}
	return sum
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
