package stream

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// abrOrigin is an in-memory segmented origin for player tests: a master
// playlist, per-rendition media playlists, and dummy segment bodies sized
// to the rendition bitrate. Segments can be appended while live.
type abrOrigin struct {
	mu       sync.Mutex
	target   int
	live     bool
	segs     int
	ladder   []Rendition
	perSegmt map[string]int // label -> bytes per segment body
}

func newABROrigin(target, segs int, live bool) *abrOrigin {
	return &abrOrigin{
		target: target, segs: segs, live: live,
		ladder: []Rendition{
			{Label: "360p", BandwidthBps: 80_000, URL: "/playlist/1/360p"},
			{Label: "720p", BandwidthBps: 200_000, URL: "/playlist/1/720p"},
		},
		perSegmt: map[string]int{"360p": 40_000, "720p": 100_000},
	}
}

func (o *abrOrigin) publish() { o.mu.Lock(); o.segs++; o.mu.Unlock() }
func (o *abrOrigin) end()     { o.mu.Lock(); o.live = false; o.mu.Unlock() }

func (o *abrOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	segs, live := o.segs, o.live
	o.mu.Unlock()
	switch {
	case r.URL.Path == "/playlist/1":
		w.Write(MasterPlaylist{Renditions: o.ladder}.Marshal())
	case strings.HasPrefix(r.URL.Path, "/playlist/1/"):
		label := strings.TrimPrefix(r.URL.Path, "/playlist/1/")
		m := MediaPlaylist{TargetDuration: o.target, Live: live}
		for i := 0; i < segs; i++ {
			m.Segments = append(m.Segments, SegmentRef{
				Index: i, DurationSeconds: o.target,
				URL: fmt.Sprintf("/segment/1/%s/%d", label, i),
			})
		}
		w.Write(m.Marshal())
	case strings.HasPrefix(r.URL.Path, "/segment/1/"):
		rest := strings.TrimPrefix(r.URL.Path, "/segment/1/")
		label, idxStr, _ := strings.Cut(rest, "/")
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= segs {
			http.NotFound(w, r)
			return
		}
		w.Write(make([]byte, o.perSegmt[label]))
	default:
		http.NotFound(w, r)
	}
}

func TestABRPlaysVODAndSwitchesUp(t *testing.T) {
	origin := newABROrigin(4, 6, false)
	srv := httptest.NewServer(origin)
	defer srv.Close()

	p := &ABRPlayer{}
	rep, err := p.Play(srv.URL + "/playlist/1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EndReached {
		t.Error("VOD session did not reach the end marker")
	}
	if rep.Segments != 6 {
		t.Errorf("played %d segments, want 6", rep.Segments)
	}
	if rep.PlayedSeconds != 24 {
		t.Errorf("played %vs, want 24s", rep.PlayedSeconds)
	}
	// Loopback bandwidth dwarfs the 200kbps top rung: the player must start
	// at 360p (conservative) and switch up exactly once.
	if rep.Renditions["360p"] != 1 || rep.Renditions["720p"] != 5 || rep.Switches != 1 {
		t.Errorf("rendition mix %v with %d switches, want one 360p start then 720p", rep.Renditions, rep.Switches)
	}
	if rep.RebufferRatio() < 0 || rep.RebufferRatio() > 1 {
		t.Errorf("rebuffer ratio %v out of [0,1]", rep.RebufferRatio())
	}
}

func TestABRFollowsLiveEdge(t *testing.T) {
	origin := newABROrigin(4, 2, true)
	srv := httptest.NewServer(origin)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			time.Sleep(5 * time.Millisecond)
			origin.publish()
		}
		origin.end()
	}()

	p := &ABRPlayer{PollInterval: 2 * time.Millisecond}
	rep, err := p.Play(srv.URL + "/playlist/1")
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EndReached {
		t.Error("live session did not consume the end marker")
	}
	// Started 2 behind the edge (only 2 existed), consumed through 10.
	if rep.Segments != 10 {
		t.Errorf("played %d segments, want 10", rep.Segments)
	}
	if rep.MaxLiveLag > 6 {
		t.Errorf("fell %d segments behind the live edge", rep.MaxLiveLag)
	}
}
