package workload

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBurstOverlay verifies the flash-crowd shape: an instantaneous step up
// at Start, factored rate for exactly Duration, instantaneous step back,
// compounding when bursts overlap, and no daily recurrence (raw offset, not
// time-of-day).
func TestBurstOverlay(t *testing.T) {
	base := Diurnal{Base: 2, PeakFactor: 8, PeakHour: 21}
	d := base
	d.Bursts = []Burst{
		{Start: 10 * time.Hour, Duration: 30 * time.Minute, Factor: 20},
		{Start: 10*time.Hour + 15*time.Minute, Duration: 5 * time.Minute, Factor: 2},
	}

	eq := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s: rate %.4f, want %.4f", what, got, want)
		}
	}

	// Outside every window the overlay is invisible.
	eq(d.Rate(9*time.Hour), base.Rate(9*time.Hour), "before burst")
	eq(d.Rate(11*time.Hour), base.Rate(11*time.Hour), "after burst")

	// Instantaneous leading edge: one nanosecond before is unboosted,
	// the start instant itself is fully boosted.
	edge := 10 * time.Hour
	eq(d.Rate(edge-time.Nanosecond), base.Rate(edge-time.Nanosecond), "ns before edge")
	eq(d.Rate(edge), 20*base.Rate(edge), "at edge")

	// Trailing edge is exclusive: boosted at end-1ns, off at end.
	end := edge + 30*time.Minute
	eq(d.Rate(end-time.Nanosecond), 20*base.Rate(end-time.Nanosecond), "ns before end")
	eq(d.Rate(end), base.Rate(end), "at end")

	// Overlap compounds: 20 × 2 where both windows cover t.
	mid := edge + 16*time.Minute
	eq(d.Rate(mid), 40*base.Rate(mid), "overlapping bursts")

	// No daily recurrence: 34h is 10h time-of-day but outside the raw
	// window, so only the sinusoid (which does wrap) applies.
	eq(d.Rate(34*time.Hour), base.Rate(34*time.Hour), "next day")
}

func TestBurstValidation(t *testing.T) {
	d := Diurnal{Base: 1, PeakFactor: 2, PeakHour: 20,
		Bursts: []Burst{{Start: 0, Duration: time.Hour, Factor: 0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-factor burst must panic")
		}
	}()
	d.Rate(0)
}

// fakeTier is a minimal serving tier: / and /watch respond with HTML,
// /stream honours Range over a fixed-size body.
type fakeTier struct {
	size     int
	streamed atomic.Int64
	flashHit atomic.Int64
}

func (f *fakeTier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/":
		fmt.Fprint(w, "<html>home</html>")
	case strings.HasPrefix(r.URL.Path, "/watch/"):
		fmt.Fprint(w, "<html>watch</html>")
	case strings.HasPrefix(r.URL.Path, "/stream/"):
		if strings.HasSuffix(r.URL.Path, "/99") {
			f.flashHit.Add(1)
		}
		var lo, hi int
		if n, _ := fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &lo, &hi); n == 2 && lo < f.size {
			if hi >= f.size {
				hi = f.size - 1
			}
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", lo, hi, f.size))
			w.WriteHeader(http.StatusPartialContent)
			w.Write(make([]byte, hi-lo+1))
			f.streamed.Add(int64(hi - lo + 1))
			return
		}
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
	default:
		http.NotFound(w, r)
	}
}

func TestRunLoadClosedLoop(t *testing.T) {
	tier := &fakeTier{size: 1 << 20}
	srv := httptest.NewServer(tier)
	defer srv.Close()

	rep := RunLoad(LoadOptions{
		BaseURL:       srv.URL,
		VideoIDs:      []int64{1, 2, 3, 4, 5},
		Viewers:       4,
		Loops:         5,
		StreamChunk:   64 << 10,
		ChunksPerView: 2,
		Seed:          42,
	})
	// 4 viewers × 5 loops × (home + watch + 2 chunks) = 80 requests.
	if rep.Requests != 80 {
		t.Fatalf("requests %d, want 80", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors against a healthy tier", rep.Errors)
	}
	wantBytes := int64(4 * 5 * 2 * (64 << 10))
	if rep.StreamBytes != wantBytes {
		t.Fatalf("stream bytes %d, want %d", rep.StreamBytes, wantBytes)
	}
	if rep.StreamBytes != tier.streamed.Load() {
		t.Fatalf("client counted %d bytes, server sent %d", rep.StreamBytes, tier.streamed.Load())
	}
	if rep.ThroughputBps() <= 0 {
		t.Fatal("no throughput computed")
	}
	if rep.Home.Count != 20 || rep.Stream.Count != 40 {
		t.Fatalf("latency counts home=%d stream=%d, want 20/40", rep.Home.Count, rep.Stream.Count)
	}
	if rep.Home.P99 <= 0 || rep.Stream.P99 <= 0 {
		t.Fatal("zero p99 latency recorded")
	}
}

func TestRunLoadFlashCrowd(t *testing.T) {
	tier := &fakeTier{size: 1 << 20}
	srv := httptest.NewServer(tier)
	defer srv.Close()

	RunLoad(LoadOptions{
		BaseURL:       srv.URL,
		VideoIDs:      []int64{1, 2, 3, 4, 5},
		Viewers:       4,
		Loops:         10,
		ChunksPerView: 1,
		StreamChunk:   4 << 10,
		FlashVideo:    99,
		FlashFrac:     1.0,
		Seed:          7,
	})
	// Every stream request joined the crowd on video 99.
	if got := tier.flashHit.Load(); got != 40 {
		t.Fatalf("flash video received %d of 40 stream requests", got)
	}
}
