// Package trace is the reproduction's distributed-tracing subsystem: a
// Tracer/Span model wired through every layer of the stack (web middleware,
// the async transcode queue, the conversion farm, HDFS block I/O, MapReduce
// attempts, and nebula VM lifecycles).
//
// Spans carry both clock domains the system runs in: wall time (what an
// operator's stopwatch sees) and simulated time (the nebula/mapred virtual
// clock). Parent/child linkage crosses goroutine and layer boundaries via
// context.Context; layers that cannot thread a context (hot per-block or
// per-GOP loops) link explicitly with (*Span).StartChild.
//
// Sampling is deterministic: a seeded splitmix64 hash of the root-span
// sequence number decides head-sampling, so the same seed reproduces the
// same set of sampled requests. Error or slow traces are tail-retained in a
// separate ring so the interesting traces survive even at low sample rates.
//
// The disabled path is zero-alloc: StartSpan on a disabled Tracer returns
// the context unchanged and a nil *Span, and every Span method is nil-safe,
// so instrumentation can stay in place permanently (the tier-1 alloccheck
// gate enforces 0 allocs/op on this path).
package trace

import (
	"context"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Tracer. The zero value with Enabled=false is a valid
// no-op tracer; New applies defaults for the rest.
type Options struct {
	// Enabled arms the tracer. When false every StartSpan returns the
	// context unchanged and a nil span (zero allocations).
	Enabled bool
	// SampleRate is the head-sampling probability for new root spans in
	// [0,1]. 0 means "unset" and defaults to 1 (sample everything);
	// error/slow traces are tail-retained regardless.
	SampleRate float64
	// SlowThreshold marks a trace slow (and therefore tail-retained) when
	// the root span's wall duration meets it. Default 250ms.
	SlowThreshold time.Duration
	// Capacity bounds the recent-trace ring. Default 256.
	Capacity int
	// RetainedCapacity bounds the error/slow ring. Default 64.
	RetainedCapacity int
	// MaxSpansPerTrace caps recorded spans per trace; excess spans are
	// counted as dropped rather than stored. Default 512.
	MaxSpansPerTrace int
	// Seed drives both trace-ID generation and the deterministic sampling
	// decision. Default 1.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.SampleRate <= 0 {
		o.SampleRate = 1
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = 250 * time.Millisecond
	}
	if o.Capacity <= 0 {
		o.Capacity = 256
	}
	if o.RetainedCapacity <= 0 {
		o.RetainedCapacity = 64
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 512
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Tracer owns the sampling decision and the bounded trace store. A nil
// *Tracer is valid and permanently disabled.
type Tracer struct {
	enabled   atomic.Bool
	sampleAll bool
	threshold uint64 // sample when hash <= threshold
	seed      uint64
	slow      time.Duration
	maxSpans  int

	rootSeq atomic.Uint64 // root ordinal, input to the sampling hash
	idSeq   atomic.Uint64 // span-ID source

	rootsStarted  atomic.Int64
	rootsSampled  atomic.Int64
	spansRecorded atomic.Int64
	spansDropped  atomic.Int64
	tracesStored  atomic.Int64

	mu       sync.Mutex
	active   map[uint64]*traceBuf
	recent   *ring
	retained *ring
}

// New builds a Tracer from opts. The returned tracer is always usable; with
// Enabled=false it is a zero-alloc no-op until SetEnabled(true).
func New(opts Options) *Tracer {
	opts = opts.withDefaults()
	t := &Tracer{
		sampleAll: opts.SampleRate >= 1,
		threshold: uint64(opts.SampleRate * math.MaxUint64),
		seed:      opts.Seed,
		slow:      opts.SlowThreshold,
		maxSpans:  opts.MaxSpansPerTrace,
		active:    make(map[uint64]*traceBuf),
		recent:    newRing(opts.Capacity),
		retained:  newRing(opts.RetainedCapacity),
	}
	t.enabled.Store(opts.Enabled)
	return t
}

// SetEnabled flips tracing at runtime. Traces already in flight finish
// recording; new roots start (or stop) being sampled immediately.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether new root spans may be sampled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// splitmix64 is the finalizer from Vigna's SplitMix64 generator — a cheap,
// well-distributed 64-bit mix used for both sampling and trace IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) sampled(n uint64) bool {
	if t.sampleAll {
		return true
	}
	return splitmix64(t.seed^(n*0x9e3779b97f4a7c15)) <= t.threshold
}

func (t *Tracer) newTraceID(n uint64) uint64 {
	id := splitmix64(t.seed + n)
	if id == 0 {
		id = 1
	}
	return id
}

// ctxKey keys the current span in a context.Context.
type ctxKey struct{}

// notSampled marks a context whose root was head-sampled out: children see
// it and short-circuit instead of starting fresh roots mid-request. Its
// tracer is nil so every method on it is a no-op.
var notSampled = &Span{}

// FromContext returns the current recording span, or nil if the context
// carries none (or carries the not-sampled sentinel).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	if sp == nil || sp.tracer == nil {
		return nil
	}
	return sp
}

// Reparent copies the span linkage (including the not-sampled marker) from
// `from` onto `base`. This is the async-boundary helper: a queue worker runs
// on the queue's base context (its own cancellation lifetime) while staying
// causally linked to the request that enqueued the job.
func Reparent(base, from context.Context) context.Context {
	if v := from.Value(ctxKey{}); v != nil {
		return context.WithValue(base, ctxKey{}, v.(*Span))
	}
	return base
}

// StartSpan starts a span named name under the span in ctx, or a new
// (sampling-decided) root when ctx carries none. It returns ctx carrying the
// new span. On a nil/disabled tracer — or under an unsampled root — it
// returns ctx unchanged and a nil span; all Span methods are nil-safe so
// callers never branch.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if v := ctx.Value(ctxKey{}); v != nil {
		parent := v.(*Span)
		if parent.tracer == nil { // under an unsampled root
			return ctx, nil
		}
		sp := parent.StartChild(name)
		if sp == nil {
			return ctx, nil
		}
		return context.WithValue(ctx, ctxKey{}, sp), sp
	}
	sp := t.startRoot(name, false)
	if sp == nil {
		// Unsampled root: plant the sentinel so descendants short-circuit.
		return context.WithValue(ctx, ctxKey{}, notSampled), nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartRoot starts an always-sampled root span outside any context — used
// for low-volume long-lived operations like VM lifecycles, where sampling
// out would lose the only trace of the object. Returns nil when disabled.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return t.startRoot(name, true)
}

func (t *Tracer) startRoot(name string, force bool) *Span {
	n := t.rootSeq.Add(1)
	t.rootsStarted.Add(1)
	if !force && !t.sampled(n) {
		return nil
	}
	t.rootsSampled.Add(1)
	sp := &Span{
		tracer:    t,
		traceID:   t.newTraceID(n),
		spanID:    t.idSeq.Add(1),
		name:      name,
		wallStart: time.Now(),
	}
	t.mu.Lock()
	t.active[sp.traceID] = &traceBuf{
		traceID:   sp.traceID,
		rootID:    sp.spanID,
		rootName:  name,
		wallStart: sp.wallStart,
		open:      1,
	}
	t.mu.Unlock()
	return sp
}

// Span is one timed operation in a trace. A nil *Span is a valid no-op; so
// is a span whose tracer is nil (the not-sampled sentinel). Spans may be
// annotated and ended from a different goroutine than the one that started
// them.
type Span struct {
	tracer    *Tracer
	traceID   uint64
	spanID    uint64
	parentID  uint64
	name      string
	wallStart time.Time

	mu          sync.Mutex
	simStart    time.Duration
	simDur      time.Duration
	simSet      bool
	annotations []Annotation
	errMsg      string
	ended       bool
}

// Annotation is one key/value note on a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Recording reports whether the span actually records (non-nil, sampled).
func (s *Span) Recording() bool { return s != nil && s.tracer != nil }

// TraceID returns the span's trace ID, or 0 for a no-op span — making it
// directly usable as a histogram exemplar (0 means "no exemplar").
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// StartChild starts a child span. This is the explicit-linkage path for hot
// loops that do not thread a context. Returns nil on a no-op receiver.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	t := s.tracer
	c := &Span{
		tracer:    t,
		traceID:   s.traceID,
		spanID:    t.idSeq.Add(1),
		parentID:  s.spanID,
		name:      name,
		wallStart: time.Now(),
	}
	t.mu.Lock()
	if buf := t.active[s.traceID]; buf != nil {
		buf.open++
	}
	t.mu.Unlock()
	return c
}

// Hold marks the span's trace as having async work in flight that has not
// started its span yet (a queued job). The trace will not flush — even after
// every started span, root included, has ended — until the matching Release.
// Call it from the enqueueing goroutine while the span is still open;
// without it, a root that ends before the worker dequeues would flush the
// trace and the worker's spans would be dropped.
func (s *Span) Hold() {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if buf := t.active[s.traceID]; buf != nil {
		buf.open++
	}
	t.mu.Unlock()
}

// Release undoes Hold, flushing the trace if this was the last open
// reference. Safe to call after the worker's spans have ended.
func (s *Span) Release() {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if buf := t.active[s.traceID]; buf != nil {
		buf.open--
		if buf.rootEnded && buf.open <= 0 {
			t.flushLocked(buf)
		}
	}
	t.mu.Unlock()
}

// Annotate attaches a key/value note to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	s.annotations = append(s.annotations, Annotation{Key: key, Value: value})
	s.mu.Unlock()
}

// AnnotateInt is Annotate for integer values without caller-side formatting.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil || s.tracer == nil {
		return
	}
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// SetError marks the span (and therefore its trace) as failed. The trace is
// tail-retained regardless of the root's duration.
func (s *Span) SetError(err error) {
	if s == nil || s.tracer == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// SetSimStart stamps the span's start in the simulated-time domain. Layers
// that run on a virtual clock (nebula, mapred's modelled schedule) call this
// explicitly — the tracer never reads the sim clock itself, so spans can be
// created while holding the clock owner's lock.
func (s *Span) SetSimStart(d time.Duration) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	s.simStart = d
	s.simSet = true
	s.mu.Unlock()
}

// EndAtSim ends the span, stamping the simulated-time domain end at d (the
// sim duration becomes d - SetSimStart's value).
func (s *Span) EndAtSim(d time.Duration) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	if s.simSet && d >= s.simStart {
		s.simDur = d - s.simStart
	}
	s.mu.Unlock()
	s.End()
}

// End completes the span and records it into its trace. Ending the root
// does not flush the trace until every child has ended, so spans completing
// after the root (async queue work) still land in the trace.
// End is idempotent.
func (s *Span) End() {
	if s == nil || s.tracer == nil {
		return
	}
	wallDur := time.Since(s.wallStart)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:     s.traceID,
		SpanID:      s.spanID,
		ParentID:    s.parentID,
		Name:        s.name,
		Layer:       layerOf(s.name),
		Duration:    wallDur,
		SimStart:    s.simStart,
		SimDuration: s.simDur,
		Error:       s.errMsg,
		Annotations: s.annotations,
	}
	s.mu.Unlock()
	s.tracer.record(s.wallStart, sd)
}

// layerOf maps a span name to its layer: the prefix before the first dot
// ("hdfs.read_block" → "hdfs").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
