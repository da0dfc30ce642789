package main

import (
	"encoding/json"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function. Spans of one operation share an op id;
// parent is the index of the enclosing span (-1 at the top of an op).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; they are written out once, when the
// run ends, so that recording a span costs two clock reads and an append.
// A nil *tracer records nothing, which is how untraced runs use it.
// Spans are recorded from one goroutine at a time.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int
	op     int
	kinds  []string // kinds[op-1] classifies op (e.g. "sf1", "union", "wide")
	values []value
}

// value is a per-op number a layer reports (LSMR iterations, bytes
// written, values answered), kept beside the spans.
type value struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp starts a new operation of the given kind; the spans until the
// next beginOp share its id.
func (t *tracer) beginOp(kind string) {
	if t == nil {
		return
	}
	t.op++
	t.kinds = append(t.kinds, kind)
	t.stack = t.stack[:0]
}

// note records a per-op value.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.values = append(t.values, value{Op: t.op, Name: name, Value: v})
}

// perOp returns, for every op of the given kind ("" = any) that has spans
// called name, the summed duration of those spans in ms.
func (t *tracer) perOp(kind, name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name || (kind != "" && t.kinds[s.Op-1] != kind) {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += ms(s.dur())
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// each returns the duration in ms of every span called name.
func (t *tracer) each(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// noted returns the values called name noted by ops of the given kind
// ("" = any).
func (t *tracer) noted(kind, name string) []float64 {
	var out []float64
	for _, v := range t.values {
		if v.Name == name && (kind == "" || t.kinds[v.Op-1] == kind) {
			out = append(out, v.Value)
		}
	}
	return out
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	return t.spans[i].dur()
}

// record adds an interval measured elsewhere, [from, to], as a child of
// the innermost open span. It carries timings a layer reports about itself
// (the preconditioner build and LSMR solve inside a union reconstruction)
// and calls made on other goroutines (concurrent optimizer restarts) into
// the span tree.
func (t *tracer) record(name string, from, to time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))})
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"` // total minus the time its child spans cover
}

// layers aggregates spans by name, with self time: a span's duration minus
// the part of its interval that its direct children cover. Children may
// overlap (concurrent restarts), so coverage is the union of their
// intervals, not the sum of their durations.
func (t *tracer) layers() []layerStat {
	if t == nil {
		return nil
	}
	kids := make([][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	child := make([]time.Duration, len(t.spans))
	for i, iv := range kids {
		child[i] = covered(iv, t.spans[i].Start, t.spans[i].End)
	}
	byName := map[string]*layerStat{}
	var names []string
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.Total += ms(s.dur())
		st.Self += ms(s.dur() - child[i])
	}
	sort.Strings(names)
	out := make([]layerStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the intervals ivs, clipped to
// [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		from, to := max(iv[0], end), min(iv[1], hi)
		if to > from {
			total += to - from
			end = to
		}
	}
	return time.Duration(total)
}

// dump renders the spans and the per-layer aggregate as JSON.
func (t *tracer) dump() ([]byte, error) {
	return json.Marshal(struct {
		Kinds  []string    `json:"op_kinds"`
		Spans  []span      `json:"spans"`
		Values []value     `json:"values"`
		Layers []layerStat `json:"layers"`
	}{t.kinds, t.spans, t.values, t.layers()})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
