package trace

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"sort"
)

// SpanID returns the span's ID, or 0 for a no-op span.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// ActiveTraces snapshots traces still in flight (e.g. running VM
// lifecycles): the spans that have ended so far, plus the open-span count.
func (t *Tracer) ActiveTraces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.active))
	for _, buf := range t.active {
		out = append(out, buf.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}
