package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Parent is the index of the enclosing span (-1 for an
// op's root); spans of one op share Op.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; the load generator is a single closed loop,
// so the enclosing span is simply the top of a stack. A nil tracer records
// nothing, which is how the untraced run shares the traced run's code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// current is the innermost open span, -1 outside any.
func (t *tracer) current() int {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// begin opens a span under the current one and returns the func closing it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.current(), StartMs: ms(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].EndMs = ms(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// add records a span measured elsewhere (a server-side span reported on the
// job status) as a child of the current span.
func (t *tracer) add(name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := ms(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.current(), StartMs: s, EndMs: s + ms(dur)})
}

// nextOp starts a new op id; every span recorded until the next call
// belongs to it.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover; overlapping children are counted once.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartMs < spans[kids[b]].StartMs })
		covered, edge := 0.0, s.StartMs
		for _, k := range kids {
			lo, hi := max(spans[k].StartMs, edge), min(spans[k].EndMs, s.EndMs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndMs - s.StartMs - covered
	}
	return self
}

// layerTimes sums span time per (op, name) and returns, per name, the
// median over ops of the total and of the self time.
func layerTimes(spans []span) (total, self map[string]float64) {
	type key struct {
		op   int
		name string
	}
	selfs := selfTimes(spans)
	tot, slf := map[key]float64{}, map[key]float64{}
	for i, s := range spans {
		k := key{s.Op, s.Name}
		tot[k] += s.EndMs - s.StartMs
		slf[k] += selfs[i]
	}
	perName := func(m map[key]float64) map[string]float64 {
		by := map[string][]float64{}
		for k, v := range m {
			by[k.name] = append(by[k.name], v)
		}
		out := map[string]float64{}
		for name, vs := range by {
			out[name] = quantile(vs, 0.5)
		}
		return out
	}
	return perName(tot), perName(slf)
}

// writeSpans dumps the raw spans with the per-layer medians.
func writeSpans(path string, spans []span) error {
	total, self := layerTimes(spans)
	b, err := json.MarshalIndent(struct {
		TotalMs map[string]float64 `json:"layer_total_ms"`
		SelfMs  map[string]float64 `json:"layer_self_ms"`
		Spans   []span             `json:"spans"`
	}{total, self, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
