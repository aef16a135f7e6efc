package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans of one slide share its slide
// number; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID, Parent int
	Name       string
	Slide      int
	Start, End int64 // ns since the tracer's base
}

// tracer keeps spans in memory until the benchmark ends. It is used from
// one goroutine: the traced replay is serial by design.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, name string, slide int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Slide: slide})
	s := &t.spans[len(t.spans)-1]
	s.Start = t.now()
	return s.ID
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.End - s.Start
}

// span runs f inside a span and returns f's error.
func (t *tracer) span(parent int, name string, slide int, f func() error) error {
	id := t.begin(parent, name, slide)
	err := f()
	t.end(id)
	return err
}

// add records a span whose interval was measured elsewhere (the stage
// clocks inside Query.Stats).
func (t *tracer) add(parent int, name string, slide int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Slide: slide, Start: start, End: end})
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children are counted once; a child reaching outside its
// parent is clipped to it.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: ns covered so far
	edge := make([]int64, len(spans))    // per parent: end of the covered prefix
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		edge[i] = spans[i].Start
	}
	// Children are recorded after their parent and, for one parent, in
	// start order, so one forward pass sees each parent's children sorted.
	for _, c := range spans {
		if c.Parent == 0 {
			continue
		}
		p := c.Parent - 1
		lo, hi := c.Start, c.End
		if lo < edge[p] {
			lo = edge[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			covered[p] += hi - lo
			edge[p] = hi
		}
	}
	for i := range self {
		self[i] -= covered[i]
	}
	return self
}

// layerTotals sums duration, self time and call count per span name.
type layerTotal struct {
	calls    int
	ns, self int64
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.ns += s.End - s.Start
		lt.self += self[i]
	}
	return out
}

// writeTo writes the spans as a JSON array, one object per line.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	wl := strconv.Quote(t.workload)
	bw.WriteString("[\n")
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"workload":%s,"slide":%d,"start_ns":%d,"end_ns":%d}`,
			s.ID, s.Parent, s.Name, wl, s.Slide, s.Start, s.End)
	}
	bw.WriteString("\n]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
