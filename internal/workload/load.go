package workload

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/metrics"
)

// This file is the closed-loop half of the package: where workload.Generate
// produces traces for simulation, RunLoad drives real HTTP against a running
// serving tier (one Site or an ingress fleet) and measures what viewers
// actually experienced. Closed-loop means each virtual viewer issues its next
// request only after the previous one completes — the natural backpressure of
// a video player — so measured latency and throughput reflect the server's
// capacity, not an open-loop generator's queue.

// LoadOptions configures one RunLoad call.
type LoadOptions struct {
	// BaseURL is the serving tier's root, e.g. "http://127.0.0.1:43210".
	BaseURL string
	// VideoIDs is the catalog, ordered most- to least-popular: the Zipf
	// pick indexes into it directly.
	VideoIDs []int64
	// Viewers is the closed-loop concurrency (number of virtual players).
	Viewers int
	// Loops is how many home→watch→stream iterations each viewer runs.
	Loops int
	// ZipfS is the popularity exponent (defaults to 0.9 when 0).
	ZipfS float64
	// FlashVideo, when non-zero, is a video id that FlashFrac of all picks
	// are redirected to — a flash crowd on one title.
	FlashVideo int64
	// FlashFrac is the fraction (0-1] of picks forced onto FlashVideo.
	FlashFrac float64
	// StreamChunk is the Range window per stream request in bytes
	// (defaults to 256 KiB when 0), and ChunksPerView is how many
	// sequential windows one view fetches (defaults to 4 when 0).
	StreamChunk   int
	ChunksPerView int
	// Seed makes the viewer behaviour deterministic.
	Seed int64
}

// LoadReport is what the viewers measured.
type LoadReport struct {
	Requests int64
	Errors   int64
	// StreamBytes is total video payload received across all viewers.
	StreamBytes int64
	Elapsed     time.Duration
	// Home and Stream are client-observed latency distributions, in
	// seconds, for GET / and for each stream Range request.
	Home   metrics.Snapshot
	Stream metrics.Snapshot
}

// RunLoad drives Viewers concurrent closed-loop players against BaseURL.
// Each loop iteration is one session: load the home page, pick a title by
// Zipf popularity (or join the flash crowd), load its watch page, then fetch
// ChunksPerView sequential Range windows of its stream. Deterministic for a
// given seed up to network scheduling.
func RunLoad(o LoadOptions) LoadReport {
	if o.Viewers < 1 || o.Loops < 1 || len(o.VideoIDs) == 0 {
		panic(fmt.Sprintf("workload: bad load options %+v", o))
	}
	if o.ZipfS == 0 {
		o.ZipfS = 0.9
	}
	if o.StreamChunk == 0 {
		o.StreamChunk = 256 << 10
	}
	if o.ChunksPerView == 0 {
		o.ChunksPerView = 4
	}
	zipf := NewZipf(len(o.VideoIDs), o.ZipfS)
	homeLat := metrics.NewHistogram()
	streamLat := metrics.NewHistogram()
	var requests, errors, streamBytes atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for v := 0; v < o.Viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(v)*7919))
			client := &http.Client{}
			for i := 0; i < o.Loops; i++ {
				// Home page.
				t0 := time.Now()
				err := discardGet(client, o.BaseURL+"/", "")
				homeLat.ObserveDuration(time.Since(t0))
				requests.Add(1)
				if err != nil {
					errors.Add(1)
				}

				// Title choice: flash crowd or Zipf.
				id := o.VideoIDs[zipf.Pick(rng)]
				if o.FlashVideo != 0 && rng.Float64() < o.FlashFrac {
					id = o.FlashVideo
				}

				// Watch page.
				err = discardGet(client, fmt.Sprintf("%s/watch/%d", o.BaseURL, id), "")
				requests.Add(1)
				if err != nil {
					errors.Add(1)
				}

				// Stream: sequential Range windows, as a player buffering
				// ahead would issue them.
				for c := 0; c < o.ChunksPerView; c++ {
					lo := c * o.StreamChunk
					rangeHdr := fmt.Sprintf("bytes=%d-%d", lo, lo+o.StreamChunk-1)
					t0 = time.Now()
					n, serr := rangeGet(client, fmt.Sprintf("%s/stream/%d", o.BaseURL, id), rangeHdr)
					streamLat.ObserveDuration(time.Since(t0))
					requests.Add(1)
					streamBytes.Add(n)
					if serr != nil {
						errors.Add(1)
						break // past EOF or server trouble: end this view
					}
				}
			}
		}(v)
	}
	wg.Wait()

	return LoadReport{
		Requests:    requests.Load(),
		Errors:      errors.Load(),
		StreamBytes: streamBytes.Load(),
		Elapsed:     time.Since(start),
		Home:        homeLat.Snapshot(),
		Stream:      streamLat.Snapshot(),
	}
}

// discardGet fetches url, drains the body, and returns an error on transport
// failure or non-2xx status.
func discardGet(client *http.Client, url, rangeHdr string) error {
	_, err := rangeGet(client, url, rangeHdr)
	return err
}

// rangeGet fetches url with an optional Range header and returns the number
// of body bytes received.
func rangeGet(client *http.Client, url, rangeHdr string) (int64, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, err
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return n, fmt.Errorf("status %d for %s", resp.StatusCode, url)
	}
	return n, nil
}
