package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a package of the
// simulator. Parent links a span to the one that caused it; spans of one
// request (a daemon cycle or read) share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: spans are still timed, because the workloads read their
// latencies from them, but nothing is recorded.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timer is an open span.
type timer struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root) in request
// req (0 for none).
func (t *tracer) begin(name string, parent, req int64) timer {
	tm := timer{tr: t, parent: parent, req: req, name: name}
	if t != nil {
		tm.id = t.ids.Add(1)
	}
	tm.start = time.Now()
	return tm
}

// request allocates a request id (0 on an untraced run).
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// end closes the span and returns its duration.
func (tm timer) end() time.Duration {
	d := time.Since(tm.start)
	if t := tm.tr; t != nil {
		start := tm.start.Sub(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: tm.name, ID: tm.id, Parent: tm.parent, Req: tm.req,
			Start: start, End: start + d.Nanoseconds()})
		t.mu.Unlock()
	}
	return d
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is the total minus the part of each span's interval that
	// its child spans cover.
	SelfNS int64 `json:"self_ns"`
}

// layers computes per-name totals and self times from the recorded
// spans.
func (t *tracer) layers() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	var out []*layerTime
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			out = append(out, lt)
		}
		lt.Count++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	res := make([]layerTime, len(out))
	for i, lt := range out {
		res[i] = *lt
	}
	return res
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// write saves the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
