package trace

import (
	"sort"
	"time"
)

// SpanData is the immutable recorded form of a span. Start is the offset
// from the trace's wall start so exported traces are self-contained.
type SpanData struct {
	TraceID     uint64        `json:"trace_id"`
	SpanID      uint64        `json:"span_id"`
	ParentID    uint64        `json:"parent_id,omitempty"`
	Name        string        `json:"name"`
	Layer       string        `json:"layer"`
	Start       time.Duration `json:"start_ns"`
	Duration    time.Duration `json:"duration_ns"`
	SimStart    time.Duration `json:"sim_start_ns,omitempty"`
	SimDuration time.Duration `json:"sim_duration_ns,omitempty"`
	Error       string        `json:"error,omitempty"`
	Annotations []Annotation  `json:"annotations,omitempty"`
}

// End returns the span's wall end offset from the trace start.
func (s SpanData) End() time.Duration { return s.Start + s.Duration }

// Trace is one completed (or snapshot of an in-flight) trace: the root plus
// every recorded span, sorted by start offset.
type Trace struct {
	TraceID  uint64        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"` // envelope: last span end
	Err      bool          `json:"err,omitempty"`
	Open     int           `json:"open_spans,omitempty"` // >0 on in-flight snapshots
	Dropped  int           `json:"dropped_spans,omitempty"`
	Spans    []SpanData    `json:"spans"`
}

// RootSpan returns the root span's data, or a zero SpanData if the root has
// not ended yet (in-flight snapshots).
func (tr *Trace) RootSpan() (SpanData, bool) {
	for _, s := range tr.Spans {
		if s.ParentID == 0 {
			return s, true
		}
	}
	return SpanData{}, false
}

// traceBuf accumulates a trace's ended spans while any span is still open.
// open counts the root plus every started child; the trace flushes to a
// ring only when the root has ended AND open reaches zero, so async work
// completing after the root still lands in the trace.
type traceBuf struct {
	traceID   uint64
	rootID    uint64
	rootName  string
	wallStart time.Time
	spans     []SpanData
	open      int
	rootEnded bool
	rootDur   time.Duration
	err       bool
	dropped   int
}

func (t *Tracer) record(wallStart time.Time, sd SpanData) {
	t.mu.Lock()
	buf := t.active[sd.TraceID]
	if buf == nil {
		// Trace already flushed (or never registered): count, don't store.
		t.spansDropped.Add(1)
		t.mu.Unlock()
		return
	}
	sd.Start = wallStart.Sub(buf.wallStart)
	if len(buf.spans) < t.maxSpans {
		buf.spans = append(buf.spans, sd)
		t.spansRecorded.Add(1)
	} else {
		buf.dropped++
		t.spansDropped.Add(1)
	}
	if sd.Error != "" {
		buf.err = true
	}
	if sd.SpanID == buf.rootID {
		buf.rootEnded = true
		buf.rootDur = sd.Duration
	}
	buf.open--
	if buf.rootEnded && buf.open <= 0 {
		t.flushLocked(buf)
	}
	t.mu.Unlock()
}

// flushLocked moves a completed traceBuf into the recent or retained ring.
// Caller holds t.mu.
func (t *Tracer) flushLocked(buf *traceBuf) {
	delete(t.active, buf.traceID)
	tr := buf.snapshot()
	tr.Open = 0
	t.tracesStored.Add(1)
	if buf.err || buf.rootDur >= t.slow {
		t.retained.push(tr)
	} else {
		t.recent.push(tr)
	}
}

func (b *traceBuf) snapshot() *Trace {
	spans := append([]SpanData(nil), b.spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	var end time.Duration
	for _, s := range spans {
		if e := s.End(); e > end {
			end = e
		}
	}
	return &Trace{
		TraceID:  b.traceID,
		Root:     b.rootName,
		Start:    b.wallStart,
		Duration: end,
		Err:      b.err,
		Open:     b.open,
		Dropped:  b.dropped,
		Spans:    spans,
	}
}

// ring is a fixed-capacity overwrite buffer of completed traces.
type ring struct {
	buf  []*Trace
	next int
	n    int
}

func newRing(capacity int) *ring { return &ring{buf: make([]*Trace, capacity)} }

func (r *ring) push(tr *Trace) {
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

// snapshot returns the ring's contents oldest-first.
func (r *ring) snapshot() []*Trace {
	var out []*Trace
	start := r.next
	for i := 0; i < len(r.buf); i++ {
		if tr := r.buf[(start+i)%len(r.buf)]; tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Traces returns the recent ring's completed traces, oldest-first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.snapshot()
}

// Retained returns the tail-retained (error or slow) traces, oldest-first.
func (t *Tracer) Retained() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retained.snapshot()
}

// Trace looks up a completed trace by ID in both rings (retained first).
func (t *Tracer) Trace(id uint64) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.retained.snapshot() {
		if tr.TraceID == id {
			return tr
		}
	}
	for _, tr := range t.recent.snapshot() {
		if tr.TraceID == id {
			return tr
		}
	}
	return nil
}

// Stats is the tracer's aggregate health, surfaced via core.Status().Trace.
type Stats struct {
	Enabled        bool
	RootsStarted   int64
	RootsSampled   int64
	SpansRecorded  int64
	SpansDropped   int64
	TracesStored   int64
	ActiveTraces   int
	RecentTraces   int
	RetainedTraces int
}

// Stats returns a consistent snapshot of the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	active := len(t.active)
	recent := len(t.recent.snapshot())
	retained := len(t.retained.snapshot())
	t.mu.Unlock()
	return Stats{
		Enabled:        t.enabled.Load(),
		RootsStarted:   t.rootsStarted.Load(),
		RootsSampled:   t.rootsSampled.Load(),
		SpansRecorded:  t.spansRecorded.Load(),
		SpansDropped:   t.spansDropped.Load(),
		TracesStored:   t.tracesStored.Load(),
		ActiveTraces:   active,
		RecentTraces:   recent,
		RetainedTraces: retained,
	}
}
