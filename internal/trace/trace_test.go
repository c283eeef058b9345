package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// alwaysOn samples every root and, with an hour's slow threshold, keeps
// every clean trace in the recent ring.
func alwaysOn() *Tracer {
	tr := New(Options{Enabled: true, SampleRate: 1})
	tr.slow = time.Hour
	return tr
}

func TestSpanTreeAndFlush(t *testing.T) {
	tr := alwaysOn()
	ctx, root := tr.StartSpan(context.Background(), "web.upload")
	if root == nil {
		t.Fatal("always-on tracer returned nil root")
	}
	cctx, child := tr.StartSpan(ctx, "farm.convert")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace ID %x != root %x", child.TraceID(), root.TraceID())
	}
	g := FromContext(cctx).StartChild("hdfs.write_block")
	g.AnnotateInt("block", 7)
	g.End()
	child.End()

	// Root still open: trace must not be in the store yet.
	if got := tr.Trace(root.TraceID()); got != nil {
		t.Fatal("trace flushed before root ended")
	}
	root.End()
	got := tr.Trace(root.TraceID())
	if got == nil {
		t.Fatal("trace not stored after root ended")
	}
	if len(got.Spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(got.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	if byName["farm.convert"].ParentID != root.SpanID() {
		t.Fatal("farm.convert not parented to root")
	}
	if byName["hdfs.write_block"].ParentID != byName["farm.convert"].SpanID {
		t.Fatal("hdfs.write_block not parented to farm.convert")
	}
	if byName["hdfs.write_block"].Layer != "hdfs" {
		t.Fatalf("layer %q, want hdfs", byName["hdfs.write_block"].Layer)
	}
}

// A child ending after the root (the async transcode queue) must still land
// in the trace: flush waits for the open-span count to reach zero.
func TestAsyncChildCompletesTrace(t *testing.T) {
	tr := alwaysOn()
	ctx, root := tr.StartSpan(context.Background(), "web.upload")

	done := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, sp := tr.StartSpan(Reparent(context.Background(), ctx), "queue.job")
		close(started)
		<-done
		sp.End()
	}()
	<-started
	root.End()
	if tr.Trace(root.TraceID()) != nil {
		t.Fatal("trace flushed while queue.job still open")
	}
	close(done)
	deadline := time.Now().Add(2 * time.Second)
	for tr.Trace(root.TraceID()) == nil {
		if time.Now().After(deadline) {
			t.Fatal("trace never flushed after async child ended")
		}
		time.Sleep(time.Millisecond)
	}
	got := tr.Trace(root.TraceID())
	if len(got.Spans) != 2 {
		t.Fatalf("stored %d spans, want 2", len(got.Spans))
	}
}

func TestSamplingDeterministicAndSentinel(t *testing.T) {
	decide := func(seed uint64) []bool {
		tr := New(Options{Enabled: true, SampleRate: 0.3})
		tr.seed = seed
		var out []bool
		for i := 0; i < 64; i++ {
			ctx, sp := tr.StartSpan(context.Background(), "web.stream")
			out = append(out, sp != nil)
			// Children under an unsampled root must not start new roots.
			_, child := tr.StartSpan(ctx, "hdfs.read_block")
			if sp == nil && child != nil {
				t.Fatal("child span recorded under unsampled root")
			}
			if sp == nil && FromContext(ctx) != nil {
				t.Fatal("FromContext returned the not-sampled sentinel")
			}
			child.End()
			sp.End()
		}
		return out
	}
	a, b := decide(7), decide(7)
	sampledCount := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
		if a[i] {
			sampledCount++
		}
	}
	if sampledCount == 0 || sampledCount == 64 {
		t.Fatalf("rate 0.3 sampled %d/64 roots, want a strict subset", sampledCount)
	}
	st := New(Options{Enabled: true, SampleRate: 0.3}).Stats()
	_ = st
}

func TestTailRetention(t *testing.T) {
	tr := alwaysOn()
	// Error trace → retained ring.
	_, sp := tr.StartSpan(context.Background(), "web.stream")
	sp.SetError(errors.New("boom"))
	sp.End()
	// Clean fast trace → recent ring.
	_, ok := tr.StartSpan(context.Background(), "web.home")
	ok.End()

	ret, rec := tr.Retained(), tr.Traces()
	if len(ret) != 1 || !ret[0].Err || ret[0].Root != "web.stream" {
		t.Fatalf("retained ring = %+v, want the error trace", ret)
	}
	if len(rec) != 1 || rec[0].Root != "web.home" {
		t.Fatalf("recent ring = %+v, want the clean trace", rec)
	}

	// Slow trace → retained even without an error.
	slow := New(Options{Enabled: true, SampleRate: 1})
	slow.slow = time.Nanosecond
	_, sp2 := slow.StartSpan(context.Background(), "web.upload")
	time.Sleep(50 * time.Microsecond)
	sp2.End()
	if got := slow.Retained(); len(got) != 1 {
		t.Fatalf("slow trace not tail-retained: %+v", got)
	}
}

func TestRingBoundedAndSpanCap(t *testing.T) {
	tr := alwaysOn()
	tr.recent, tr.maxSpans = newRing(4), 2
	for i := 0; i < 10; i++ {
		_, sp := tr.StartSpan(context.Background(), fmt.Sprintf("web.r%d", i))
		for j := 0; j < 5; j++ {
			sp.StartChild("hdfs.read_block").End()
		}
		sp.End()
	}
	recent := tr.Traces()
	if len(recent) != 4 {
		t.Fatalf("recent ring holds %d traces, want capacity 4", len(recent))
	}
	if recent[len(recent)-1].Root != "web.r9" {
		t.Fatalf("newest trace is %s, want web.r9", recent[len(recent)-1].Root)
	}
	for _, g := range recent {
		if len(g.Spans) > 2 {
			t.Fatalf("trace %s stored %d spans, want ≤ the span cap of 2", g.Root, len(g.Spans))
		}
		if g.Dropped == 0 {
			t.Fatalf("trace %s dropped none, want drop accounting", g.Root)
		}
	}
	if tr.Stats().SpansDropped == 0 {
		t.Fatal("tracer-level dropped counter never moved")
	}
}

func TestSimClockDomain(t *testing.T) {
	tr := alwaysOn()
	root := tr.StartRoot("nebula.vm")
	root.SetSimStart(10 * time.Second)
	st := root.StartChild("nebula.boot")
	st.SetSimStart(12 * time.Second)
	st.EndAtSim(15 * time.Second)
	root.EndAtSim(40 * time.Second)
	got := tr.Trace(root.TraceID())
	if got == nil {
		t.Fatal("VM trace not stored")
	}
	byName := map[string]SpanData{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	if d := byName["nebula.boot"].SimDuration; d != 3*time.Second {
		t.Fatalf("boot sim duration %v, want 3s", d)
	}
	if d := byName["nebula.vm"].SimDuration; d != 30*time.Second {
		t.Fatalf("vm sim duration %v, want 30s", d)
	}
	if byName["nebula.boot"].SimStart != 12*time.Second {
		t.Fatalf("boot sim start %v, want 12s", byName["nebula.boot"].SimStart)
	}
}

func TestActiveTracesSnapshot(t *testing.T) {
	tr := alwaysOn()
	root := tr.StartRoot("nebula.vm")
	child := root.StartChild("nebula.pending")
	child.End()
	acts := tr.ActiveTraces()
	if len(acts) != 1 || acts[0].Open != 1 {
		t.Fatalf("active snapshot = %+v, want one trace with 1 open span", acts)
	}
	if len(acts[0].Spans) != 1 || acts[0].Spans[0].Name != "nebula.pending" {
		t.Fatalf("active snapshot spans = %+v", acts[0].Spans)
	}
	root.End()
	if len(tr.ActiveTraces()) != 0 {
		t.Fatal("trace still active after root+children ended")
	}
}

func TestCriticalPathAttribution(t *testing.T) {
	// Hand-built trace: root [0,100ms] with children a [10,40] and
	// b [50,90]; a has grandchild g [20,35]. Expected self-times:
	// root 0-10 + 40-50 + 90-100 = 30ms; a 10-20 + 35-40 = 15ms;
	// g 15ms; b 40ms.
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &Trace{
		TraceID: 1, Root: "web.upload", Duration: ms(100),
		Spans: []SpanData{
			{TraceID: 1, SpanID: 1, Name: "web.upload", Layer: "web", Start: 0, Duration: ms(100)},
			{TraceID: 1, SpanID: 2, ParentID: 1, Name: "farm.convert", Layer: "farm", Start: ms(10), Duration: ms(30)},
			{TraceID: 1, SpanID: 3, ParentID: 2, Name: "video.gop", Layer: "video", Start: ms(20), Duration: ms(15)},
			{TraceID: 1, SpanID: 4, ParentID: 1, Name: "hdfs.write_file", Layer: "hdfs", Start: ms(50), Duration: ms(40)},
		},
	}
	sum := Summarize(tr)
	if sum.Total != ms(100) {
		t.Fatalf("total %v, want 100ms", sum.Total)
	}
	want := map[string]time.Duration{"web": ms(30), "farm": ms(15), "video": ms(15), "hdfs": ms(40)}
	got := map[string]time.Duration{}
	for _, l := range sum.Layers {
		got[l.Layer] = l.Time
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Fatalf("layer %s attributed %v, want %v (all: %v)", layer, got[layer], d, got)
		}
	}
	if sum.RootSelf != ms(30) {
		t.Fatalf("root self %v, want 30ms", sum.RootSelf)
	}
	if sum.Coverage < 0.69 || sum.Coverage > 0.71 {
		t.Fatalf("coverage %.2f, want 0.70", sum.Coverage)
	}
	// The whole window is attributed exactly once: steps tile [0,100ms].
	var covered time.Duration
	for _, st := range sum.Steps {
		covered += st.End - st.Start
	}
	if covered != ms(100) {
		t.Fatalf("steps cover %v, want exactly 100ms", covered)
	}
}

// An async child that outlives its parent extends the path window instead
// of being dropped (the queue.job case).
func TestCriticalPathAsyncChild(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &Trace{
		TraceID: 2, Root: "web.upload", Duration: ms(120),
		Spans: []SpanData{
			{TraceID: 2, SpanID: 1, Name: "web.upload", Layer: "web", Start: 0, Duration: ms(20)},
			{TraceID: 2, SpanID: 2, ParentID: 1, Name: "queue.job", Layer: "queue", Start: ms(10), Duration: ms(110)},
		},
	}
	sum := Summarize(tr)
	if sum.Total != ms(120) {
		t.Fatalf("total %v, want the async-extended 120ms window", sum.Total)
	}
	got := map[string]time.Duration{}
	for _, l := range sum.Layers {
		got[l.Layer] = l.Time
	}
	if got["queue"] != ms(110) || got["web"] != ms(10) {
		t.Fatalf("attribution %v, want queue=110ms web=10ms", got)
	}
}

func TestExportersValidJSON(t *testing.T) {
	tr := alwaysOn()
	ctx, root := tr.StartSpan(context.Background(), "web.upload")
	_, c := tr.StartSpan(ctx, "hdfs.write_file")
	c.Annotate("path", "videos/1.vcf")
	c.SetError(errors.New("disk full"))
	c.End()
	root.End()

	traces := tr.Retained()
	if len(traces) != 1 {
		t.Fatalf("want the error trace retained, got %d", len(traces))
	}
	chrome, err := ExportChrome(traces)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["name"] == "hdfs.write_file" {
				args := e["args"].(map[string]any)
				if args["error"] != "disk full" || args["path"] != "videos/1.vcf" {
					t.Fatalf("chrome args missing error/annotation: %v", args)
				}
			}
		case "M":
			meta++
		}
	}
	if complete != 2 || meta < 3 {
		t.Fatalf("chrome export has %d X events / %d M events, want 2 / ≥3", complete, meta)
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := New(Options{Enabled: true, SampleRate: 0.5})
	tr.slow, tr.recent = time.Hour, newRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "web.stream")
				child := FromContext(ctx).StartChild("hdfs.read_block")
				child.AnnotateInt("block", int64(i))
				child.End()
				sp.End()
				tr.Stats()
				if i%10 == 0 {
					tr.Traces()
					tr.ActiveTraces()
				}
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.RootsStarted != 400 {
		t.Fatalf("roots started %d, want 400", st.RootsStarted)
	}
	if st.ActiveTraces != 0 {
		t.Fatalf("%d traces leaked in the active map", st.ActiveTraces)
	}
}

func TestSetEnabledRuntime(t *testing.T) {
	tr := New(Options{Enabled: false})
	if _, sp := tr.StartSpan(context.Background(), "web.home"); sp != nil {
		t.Fatal("disabled tracer produced a span")
	}
	tr.SetEnabled(true)
	_, sp := tr.StartSpan(context.Background(), "web.home")
	if sp == nil {
		t.Fatal("enabled tracer produced no span")
	}
	sp.End()
	if !tr.Stats().Enabled || tr.Stats().TracesStored != 1 {
		t.Fatalf("stats after enable: %+v", tr.Stats())
	}
}
