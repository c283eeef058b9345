package stream

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// ABRPlayer is a headless adaptive-bitrate client over the playlist format:
// it fetches a title's master playlist, walks one rendition's media playlist
// segment by segment, measures download bandwidth, and switches renditions
// mid-stream when the measured rate says a better (or safer) one fits —
// the segmented counterpart of Player's progressive Range session.
//
// Playback is simulated against real wall-clock download times: each segment
// adds its play duration to a bounded client buffer, each download drains
// the buffer for as long as it took, and time spent downloading with an
// empty buffer is rebuffering. A live playlist (no end marker) is followed
// at the live edge: the player re-polls the playlist when it runs out of
// segments and records how far behind the newest segment it fell.
type ABRPlayer struct {
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// LiveWindow is how many segments behind the live edge playback starts
	// (default 3, like HLS's three-target-durations rule).
	LiveWindow int
	// PollInterval is the live-edge playlist re-poll period (default 20ms).
	PollInterval time.Duration
	// PollBudget bounds consecutive empty polls before the session fails
	// (default 500 — a stalled ingest must not hang viewers forever).
	PollBudget int
	// SwitchHeadroom is the safety factor for moving up: a rendition is
	// eligible when measured bandwidth >= SwitchHeadroom * its bitrate
	// (default 1.25).
	SwitchHeadroom float64
	// BufferCapSeconds bounds the simulated client buffer (default 4
	// target durations): players keep a bounded lookahead, and without the
	// cap an early burst of fast downloads would mask every later stall.
	BufferCapSeconds float64
}

// ABRReport is what one adaptive session experienced.
type ABRReport struct {
	// PlayedSeconds is content play time fetched; RebufferSeconds is time
	// spent downloading with an empty buffer (startup excluded).
	PlayedSeconds   float64
	RebufferSeconds float64
	Segments        int
	Bytes           int64
	// Switches counts mid-stream rendition changes; Renditions counts
	// segments fetched per quality label.
	Switches   int
	Renditions map[string]int
	// MaxLiveLag is the deepest the player fell behind the live edge, in
	// segments, at the moment it fetched one (0 for VOD sessions).
	MaxLiveLag int
	// EndReached reports that the playlist's end marker was consumed.
	EndReached bool
}

func (p *ABRPlayer) client() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return http.DefaultClient
}

// Play runs one adaptive session against a master playlist URL.
func (p *ABRPlayer) Play(masterURL string) (*ABRReport, error) {
	base, err := url.Parse(masterURL)
	if err != nil {
		return nil, fmt.Errorf("stream: bad master URL: %w", err)
	}
	origin := base.Scheme + "://" + base.Host
	data, err := p.fetch(masterURL)
	if err != nil {
		return nil, err
	}
	master, err := ParseMaster(data)
	if err != nil {
		return nil, err
	}
	// Ladder sorted by bandwidth: playback starts conservative (lowest)
	// and climbs as measurements come in.
	ladder := append([]Rendition(nil), master.Renditions...)
	sort.Slice(ladder, func(i, j int) bool { return ladder[i].BandwidthBps < ladder[j].BandwidthBps })

	headroom := p.SwitchHeadroom
	if headroom <= 0 {
		headroom = 1.25
	}
	liveWindow := p.LiveWindow
	if liveWindow <= 0 {
		liveWindow = 3
	}
	poll := p.PollInterval
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	pollBudget := p.PollBudget
	if pollBudget <= 0 {
		pollBudget = 500
	}

	rep := &ABRReport{Renditions: make(map[string]int)}
	cur := 0
	pl, err := p.fetchMedia(origin, ladder[cur])
	if err != nil {
		return nil, err
	}
	bufferCap := p.BufferCapSeconds
	if bufferCap <= 0 {
		bufferCap = 4 * float64(pl.TargetDuration)
	}

	next := 0
	if pl.Live && len(pl.Segments) > liveWindow {
		next = len(pl.Segments) - liveWindow
	}
	var estBps, buffer float64
	emptyPolls := 0
	for {
		if next >= len(pl.Segments) {
			if !pl.Live {
				rep.EndReached = true
				return rep, nil
			}
			// At the live edge with nothing new: wait for the ingest.
			if emptyPolls++; emptyPolls > pollBudget {
				return rep, fmt.Errorf("stream: live edge stalled at segment %d", next)
			}
			time.Sleep(poll)
			if pl, err = p.fetchMedia(origin, ladder[cur]); err != nil {
				return rep, err
			}
			continue
		}
		emptyPolls = 0
		seg := pl.Segments[next]
		if pl.Live {
			if lag := len(pl.Segments) - 1 - next; lag > rep.MaxLiveLag {
				rep.MaxLiveLag = lag
			}
		}
		t0 := time.Now()
		n, err := p.fetchDiscard(origin + seg.URL)
		if err != nil {
			return rep, fmt.Errorf("stream: segment %d (%s): %w", seg.Index, ladder[cur].Label, err)
		}
		dt := time.Since(t0).Seconds()
		if dt < 1e-9 {
			dt = 1e-9
		}
		if sample := float64(n) * 8 / dt; estBps == 0 {
			estBps = sample
		} else {
			estBps = 0.7*estBps + 0.3*sample
		}
		segDur := float64(seg.DurationSeconds)
		if rep.Segments == 0 {
			// Startup: the first download is latency, not a stall.
			buffer = segDur
		} else {
			if dt > buffer {
				rep.RebufferSeconds += dt - buffer
				buffer = 0
			} else {
				buffer -= dt
			}
			buffer += segDur
		}
		if buffer > bufferCap {
			buffer = bufferCap
		}
		rep.PlayedSeconds += segDur
		rep.Segments++
		rep.Bytes += n
		rep.Renditions[ladder[cur].Label]++
		next++

		// Rate adaptation: the highest rung the measured bandwidth clears
		// with headroom, never below the bottom one.
		want := 0
		for i := len(ladder) - 1; i > 0; i-- {
			if estBps >= headroom*float64(ladder[i].BandwidthBps) {
				want = i
				break
			}
		}
		if want != cur {
			cur = want
			rep.Switches++
			if pl, err = p.fetchMedia(origin, ladder[cur]); err != nil {
				return rep, err
			}
		}
	}
}

func (p *ABRPlayer) fetchMedia(origin string, r Rendition) (MediaPlaylist, error) {
	data, err := p.fetch(origin + r.URL)
	if err != nil {
		return MediaPlaylist{}, fmt.Errorf("stream: %s playlist: %w", r.Label, err)
	}
	return ParseMedia(data)
}

// fetch GETs a small resource (a playlist) fully into memory.
func (p *ABRPlayer) fetch(url string) ([]byte, error) {
	resp, err := p.client().Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("%w: %d for %s", ErrBadStatus, resp.StatusCode, url)
	}
	return io.ReadAll(resp.Body)
}

// fetchDiscard GETs a segment, draining (and counting) the body.
func (p *ABRPlayer) fetchDiscard(url string) (int64, error) {
	resp, err := p.client().Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("%w: %d for %s", ErrBadStatus, resp.StatusCode, url)
	}
	return n, nil
}
