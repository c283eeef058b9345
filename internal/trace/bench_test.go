package trace

import (
	"context"
	"testing"
	"time"
)

// The `make trace` target runs these three into BENCH_trace.json: the cost
// of a root+child span pair with tracing disabled (must be 0 B/op — the
// price every request pays forever), head-sampled at 1%, and always-on.

func benchSpans(b *testing.B, tr *Tracer) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, sp := tr.StartSpan(ctx, "web.stream")
		child := FromContext(c).StartChild("hdfs.read_block")
		child.End()
		sp.End()
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	benchSpans(b, New(Options{Enabled: false}))
}

func BenchmarkTraceSampled(b *testing.B) {
	tr := New(Options{Enabled: true, SampleRate: 0.01})
	tr.slow = time.Hour
	benchSpans(b, tr)
}

func BenchmarkTraceAlwaysOn(b *testing.B) {
	benchSpans(b, alwaysOn())
}

func BenchmarkTraceCriticalPath(b *testing.B) {
	tr := alwaysOn()
	ctx, root := tr.StartSpan(context.Background(), "web.upload")
	for i := 0; i < 16; i++ {
		_, sp := tr.StartSpan(ctx, "hdfs.write_file")
		for j := 0; j < 4; j++ {
			sp.StartChild("hdfs.write_block").End()
		}
		sp.End()
	}
	root.End()
	g := tr.Trace(root.TraceID())
	if g == nil {
		b.Fatal("trace not stored")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Summarize(g); s.Total <= 0 {
			b.Fatal("empty summary")
		}
	}
}
