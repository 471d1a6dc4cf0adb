package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"cure/internal/obsv"
)

// span is one timed call into a layer. Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// the end-to-end runs stay untraced. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(layer, name string, fn func() error) error {
	id := t.begin(layer, name)
	err := fn()
	t.end(id)
	return err
}

// adopt records the span tree a core.Build left in its registry as
// children of span parent, so the build's own phases (build/load,
// build/cube, …) sit inside the benchmark's span around the call.
func (t *tracer) adopt(parent int, layer string, snaps []obsv.SpanSnapshot) {
	if t == nil {
		return
	}
	for _, s := range snaps {
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: s.Name,
			Start: int64(s.StartTime.Sub(t.t0)), End: int64(s.EndTime.Sub(t.t0))})
		t.adopt(id, layer, s.Children)
	}
}

// selfTimes returns each layer's self time in seconds: the time its
// spans cover minus the part of each span that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		out[s.Layer] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of parent's interval the union of children
// covers. Children of concurrent work may overlap, so they are merged.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines, after a header line naming the
// workload and seed.
func (t *tracer) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
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
