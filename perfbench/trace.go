package main

import (
	"context"
	"time"

	"hyperplex/internal/run"
)

// span is one timed call into a layer of the program under test.
// Start and End are nanoseconds since the tracer's base time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into each layer,
// and the per-request counts and values measured at the same
// boundaries.  Everything stays in memory until the run ends.  A nil
// *tracer records nothing, which is how the untraced requests run.
type tracer struct {
	base   time.Time
	spans  []span
	counts []map[string]float64 // per request: counts and values
	req    int                  // current request id
	root   int                  // current request's root span id
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// beginRequest opens the next request's root span.
func (t *tracer) beginRequest() {
	if t == nil {
		return
	}
	t.req = len(t.counts)
	t.counts = append(t.counts, map[string]float64{})
	t.root = -1
	t.root = t.begin("request")
}

// endRequest closes the current request's root span.
func (t *tracer) endRequest() {
	if t == nil {
		return
	}
	t.end(t.root)
}

// begin opens a span named after the layer call it wraps and returns
// its id; the current request's root span is its parent.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.root, Request: t.req, Name: name,
		Start: time.Since(t.base).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.base).Nanoseconds()
}

// set records a per-request count or value under a per-layer metric
// name.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[t.req][name] = v
}

// meter returns ctx carrying a fresh budget-free run.Meter when
// tracing, so the layer's own step count can be read after the call;
// untraced calls get ctx unchanged and a nil meter.
func (t *tracer) meter(ctx context.Context) (context.Context, *run.Meter) {
	if t == nil {
		return ctx, nil
	}
	return run.WithBudget(ctx, run.Budget{})
}

// perRequest returns, per request, its metric samples: each span's
// self time in seconds under the span's name plus "_s" (the root
// span's as request.self_s), and each recorded count or value.  A
// span's self time is its duration minus the part its child spans
// cover; spans of one request run sequentially, so children never
// overlap.
func (t *tracer) perRequest() []map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make([]map[string]float64, len(t.counts))
	for i, counts := range t.counts {
		out[i] = make(map[string]float64, len(counts))
		for name, v := range counts {
			out[i][name] = v
		}
	}
	for i, s := range t.spans {
		name := s.Name + "_s"
		if s.Parent < 0 {
			name = "request.self_s"
		}
		out[s.Request][name] += time.Duration(s.End - s.Start - child[i]).Seconds()
	}
	return out
}
