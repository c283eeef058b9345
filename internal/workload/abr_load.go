package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"videocloud/internal/stream"
)

// Segment-aware load: where RunLoad's viewers fetch progressive Range
// windows of whole files, RunEdgeLoad's viewers are adaptive-bitrate
// sessions over the playlist/segment endpoints — the workload the edge-cache
// tier exists for. Each virtual viewer picks a title by Zipf popularity,
// runs a full ABR session through stream.ABRPlayer, and the aggregate
// report carries the delivery tier's quality-of-experience signal: rebuffer
// time against play time, rendition switches, and live-edge lag.

// EdgeLoadOptions configures one RunEdgeLoad call.
type EdgeLoadOptions struct {
	// BaseURL is the serving tier's root (one Site or an ingress fleet).
	BaseURL string
	// VideoIDs is the catalog, ordered most- to least-popular.
	VideoIDs []int64
	// Viewers is the closed-loop concurrency; Sessions is the total number
	// of ABR sessions to run across them (defaults to Viewers).
	Viewers  int
	Sessions int
	// ZipfS is the popularity exponent (defaults to 1.1 when 0 — segment
	// fan-out is the heavy-skew regime).
	ZipfS float64
	// Seed makes title choice deterministic.
	Seed int64
}

// EdgeLoadReport aggregates what the ABR viewers experienced.
type EdgeLoadReport struct {
	Sessions int
	Errors   int
	Segments int
	Bytes    int64
	// PlayedSeconds and RebufferSeconds sum over sessions; their ratio is
	// the tier's quality-of-experience headline.
	PlayedSeconds   float64
	RebufferSeconds float64
	Switches        int
	// EndReached counts sessions that consumed their playlist's end marker.
	EndReached int
	// MaxLiveLag is the worst live-edge lag any session saw, in segments.
	MaxLiveLag int
	Elapsed    time.Duration
}

// RebufferRatio is aggregate stall time over aggregate session time.
func (r *EdgeLoadReport) RebufferRatio() float64 {
	total := r.PlayedSeconds + r.RebufferSeconds
	if total <= 0 {
		return 0
	}
	return r.RebufferSeconds / total
}

// RunEdgeLoad drives Viewers concurrent ABR players against BaseURL,
// Sessions sessions in total, titles picked per session by Zipf popularity.
func RunEdgeLoad(o EdgeLoadOptions) *EdgeLoadReport {
	if o.Viewers < 1 || len(o.VideoIDs) == 0 {
		panic(fmt.Sprintf("workload: bad edge load options %+v", o))
	}
	if o.Sessions == 0 {
		o.Sessions = o.Viewers
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.1
	}
	zipf := NewZipf(len(o.VideoIDs), o.ZipfS)
	rep := &EdgeLoadReport{}
	var mu sync.Mutex
	work := make(chan int64, o.Sessions)
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Sessions; i++ {
		work <- o.VideoIDs[zipf.Pick(rng)]
	}
	close(work)

	start := time.Now()
	var wg sync.WaitGroup
	for v := 0; v < o.Viewers; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &stream.ABRPlayer{}
			for id := range work {
				r, err := p.Play(fmt.Sprintf("%s/playlist/%d", o.BaseURL, id))
				mu.Lock()
				rep.Sessions++
				if err != nil {
					rep.Errors++
				}
				if r != nil {
					rep.Segments += r.Segments
					rep.Bytes += r.Bytes
					rep.PlayedSeconds += r.PlayedSeconds
					rep.RebufferSeconds += r.RebufferSeconds
					rep.Switches += r.Switches
					if r.EndReached {
						rep.EndReached++
					}
					if r.MaxLiveLag > rep.MaxLiveLag {
						rep.MaxLiveLag = r.MaxLiveLag
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// RunLiveViewers points Viewers concurrent ABR sessions at one live
// channel and lets them follow the live edge until the channel ends (or a
// session fails). The aggregate report's MaxLiveLag and EndReached are the
// staleness signal: every viewer should ride within a bounded distance of
// the newest segment and see the end marker.
func RunLiveViewers(baseURL string, channelID int64, viewers int, poll time.Duration) *EdgeLoadReport {
	if viewers < 1 {
		panic("workload: RunLiveViewers needs at least one viewer")
	}
	rep := &EdgeLoadReport{}
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &stream.ABRPlayer{PollInterval: poll}
			r, err := p.Play(fmt.Sprintf("%s/playlist/%d", baseURL, channelID))
			mu.Lock()
			defer mu.Unlock()
			rep.Sessions++
			if err != nil {
				rep.Errors++
			}
			if r != nil {
				rep.Segments += r.Segments
				rep.Bytes += r.Bytes
				rep.PlayedSeconds += r.PlayedSeconds
				rep.RebufferSeconds += r.RebufferSeconds
				if r.EndReached {
					rep.EndReached++
				}
				if r.MaxLiveLag > rep.MaxLiveLag {
					rep.MaxLiveLag = r.MaxLiveLag
				}
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}
