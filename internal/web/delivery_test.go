package web

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"videocloud/internal/stream"
	"videocloud/internal/video"
)

// uploadVOD publishes one title through the full upload pipeline and
// returns its id.
func uploadVOD(t *testing.T, b *browser, seconds int) string {
	t.Helper()
	loc := b.upload("segmented title", "d", seconds, 11)
	return strings.TrimPrefix(loc, "/watch/")
}

func TestSegmentedDeliveryVOD(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("seguser", "pw")
	id := uploadVOD(t, b, 12) // 12s / 4s segments -> 3 segments

	resp, body := b.get("/playlist/" + id)
	if resp.StatusCode != 200 {
		t.Fatalf("master playlist: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != stream.PlaylistContentType {
		t.Fatalf("master Content-Type %q", ct)
	}
	master, err := stream.ParseMaster([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(master.Renditions) != 1 || master.Renditions[0].Label != "720p" {
		t.Fatalf("master renditions %+v", master.Renditions)
	}

	resp, body = b.get(master.Renditions[0].URL)
	if resp.StatusCode != 200 {
		t.Fatalf("media playlist: %d %s", resp.StatusCode, body)
	}
	media, err := stream.ParseMedia([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if media.Live || len(media.Segments) != 3 || media.TargetDuration != 4 {
		t.Fatalf("media playlist %+v", media)
	}

	// Segments are valid containers, contiguous on the GOP timeline, and
	// merge back into the published rendition byte for byte.
	var pieces [][]byte
	for _, seg := range media.Segments {
		resp, segBody := b.get(seg.URL)
		if resp.StatusCode != 200 {
			t.Fatalf("segment %d: %d", seg.Index, resp.StatusCode)
		}
		info, err := video.Probe([]byte(segBody))
		if err != nil {
			t.Fatalf("segment %d: %v", seg.Index, err)
		}
		if info.DurationSeconds != seg.DurationSeconds {
			t.Fatalf("segment %d plays %ds, playlist says %ds", seg.Index, info.DurationSeconds, seg.DurationSeconds)
		}
		pieces = append(pieces, []byte(segBody))
	}
	if _, err := video.Merge(pieces); err != nil {
		t.Fatalf("segments do not merge: %v", err)
	}

	// A second pass over the same objects is served from edge memory: the
	// origin counter must not move.
	origin0 := site.reg.Counter("edge_segment_origin").Value()
	for _, seg := range media.Segments {
		if resp, _ := b.get(seg.URL); resp.StatusCode != 200 {
			t.Fatalf("rewatch segment %d: %d", seg.Index, resp.StatusCode)
		}
	}
	if d := site.reg.Counter("edge_segment_origin").Value() - origin0; d != 0 {
		t.Fatalf("warm rewatch hit origin %d times", d)
	}
	if site.EdgeStats().Hits == 0 {
		t.Fatal("edge cache reports no hits")
	}
}

func TestSegmentRangeRequestsZeroCopy(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("ranger", "pw")
	id := uploadVOD(t, b, 8)
	url := fmt.Sprintf("/segment/%s/720p/0", id)

	resp, full := b.get(url)
	if resp.StatusCode != 200 {
		t.Fatalf("segment: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, b.srv.URL+url, nil)
	req.Header.Set("Range", "bytes=4-19")
	rresp, err := b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusPartialContent || string(part) != full[4:20] {
		t.Fatalf("range on segment: %d, %d bytes", rresp.StatusCode, len(part))
	}
	// A Range the slice path does not take as one range gets the whole
	// segment from the same path.
	req.Header.Set("Range", "bytes=0-3,8-11")
	rresp, err = b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || string(whole) != full {
		t.Fatalf("multi-range on segment: %d, %d bytes; want 200 and the whole segment", rresp.StatusCode, len(whole))
	}
}

// TestSegmentMissCountedOnce: a /segment request looks the edge up once. The
// handler used to try Get and then GetOrFill, so a miss was counted twice —
// understating the hit ratio — and bumped the key's admission count twice,
// inflating a cold segment's claim against the LRU victim.
func TestSegmentMissCountedOnce(t *testing.T) {
	site, _ := newSite(t)
	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "clip", "d", testUploadMedia(t, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()
	key := segmentKey(nil, id, "720p", 1)
	misses, freq := site.EdgeStats().Misses, site.edge.Frequency(key)
	if rec := do(site, "GET", fmt.Sprintf("/segment/%d/720p/1", id), "", nil); rec.Code != http.StatusOK {
		t.Fatalf("segment: %d %s", rec.Code, rec.Body)
	}
	if d := site.EdgeStats().Misses - misses; d != 1 {
		t.Errorf("one cold segment request counted %d misses, want 1", d)
	}
	if d := site.edge.Frequency(key) - freq; d != 1 {
		t.Errorf("one cold segment request raised the key's admission count by %d, want 1", d)
	}
}

func TestDeliveryRejectsUnknownObjects(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("u404", "pw")
	id := uploadVOD(t, b, 8)

	for _, path := range []string{
		"/playlist/999999",
		"/playlist/" + id + "/1080p",
		"/segment/" + id + "/720p/99",
		"/segment/" + id + "/720p/-1",
		"/segment/" + id + "/720p/x",
	} {
		if resp, _ := b.get(path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	_ = site
}

func TestLiveChannelLifecycle(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	ctx := context.Background()

	id, err := site.CreateLiveChannel(ctx, site.AdminID(), "launch event", "live")
	if err != nil {
		t.Fatal(err)
	}
	// No segments yet: the playlist has nothing to serve.
	if resp, _ := b.get(fmt.Sprintf("/playlist/%d", id)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty channel playlist: %d", resp.StatusCode)
	}
	// And the whole-file endpoint points at segmented delivery.
	if resp, body := b.get(fmt.Sprintf("/stream/%d", id)); resp.StatusCode != http.StatusNotFound ||
		!strings.Contains(body, "/playlist/") {
		t.Fatalf("live /stream: %d %q", resp.StatusCode, body)
	}

	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000}
	push := func(seconds int, seed uint64) {
		t.Helper()
		chunk, err := video.Generate(src, seconds, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := site.PushLiveSegment(ctx, id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	push(4, 1)
	push(4, 2)

	// The live playlist carries no end marker and grows with pushes. The
	// edge cache may serve a copy up to LiveEdgeTTL stale, so poll past it.
	_, ttl := site.DeliveryConfig()
	deadline := time.Now().Add(50 * ttl)
	var media stream.MediaPlaylist
	for {
		resp, body := b.get(fmt.Sprintf("/playlist/%d/720p", id))
		if resp.StatusCode != 200 {
			t.Fatalf("live media playlist: %d", resp.StatusCode)
		}
		if media, err = stream.ParseMedia([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if len(media.Segments) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("playlist stuck at %d segments, want 2", len(media.Segments))
		}
		time.Sleep(ttl / 4)
	}
	if !media.Live {
		t.Fatal("live playlist carries an end marker")
	}

	// A short final segment, then end: becomes watchable VOD.
	push(2, 3)
	if _, err := site.PushLiveSegment(ctx, id, mustGenerate(t, src, 4, 4)); err == nil {
		t.Fatal("push after a short segment was accepted")
	}
	if err := site.EndLiveChannel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := site.EndLiveChannel(ctx, id); err == nil {
		t.Fatal("double EndLiveChannel was accepted")
	}

	// Past the TTL the playlist shows the end marker; segments merge into
	// one contiguous 10s container.
	deadline = time.Now().Add(50 * ttl)
	for {
		_, body := b.get(fmt.Sprintf("/playlist/%d/720p", id))
		if media, err = stream.ParseMedia([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if !media.Live && len(media.Segments) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ended playlist: live=%v segments=%d", media.Live, len(media.Segments))
		}
		time.Sleep(ttl / 4)
	}
	var pieces [][]byte
	for _, seg := range media.Segments {
		_, segBody := b.get(seg.URL)
		pieces = append(pieces, []byte(segBody))
	}
	merged, err := video.Merge(pieces)
	if err != nil {
		t.Fatalf("live segments do not merge: %v", err)
	}
	info, err := video.Probe(merged)
	if err != nil || info.DurationSeconds != 10 {
		t.Fatalf("merged live channel: %+v, %v (want 10s)", info, err)
	}
	// One layout for live and VOD: the ended channel streams as that merged
	// container, whole and by Range across the short last segment.
	if resp, body := b.get(fmt.Sprintf("/stream/%d", id)); resp.StatusCode != http.StatusOK || body != string(merged) {
		t.Fatalf("ended channel /stream: status %d, %d bytes, want the %d merged bytes",
			resp.StatusCode, len(body), len(merged))
	}
	tail, err := (&stream.Player{HTTP: b.c}).FetchRange(fmt.Sprintf("%s/stream/%d", b.srv.URL, id),
		int64(len(merged))-30_000, int64(len(merged))-1)
	if err != nil || !bytes.Equal(tail, merged[len(merged)-30_000:]) {
		t.Fatalf("ended channel tail window: %d bytes, err %v", len(tail), err)
	}
}

func mustGenerate(t *testing.T, spec video.Spec, seconds int, seed uint64) []byte {
	t.Helper()
	data, err := video.Generate(spec, seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestABRSessionAgainstSite(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("abr", "pw")
	id := uploadVOD(t, b, 16)

	p := &stream.ABRPlayer{}
	rep, err := p.Play(b.srv.URL + "/playlist/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EndReached || rep.Segments != 4 || rep.PlayedSeconds != 16 {
		t.Fatalf("ABR session %+v", rep)
	}
}

// TestRenditionMemoMatchesFresh holds the rendition memo to what /stream
// computed per request before it, its oracle: video.SegmentLayout for the
// layout, the whole-file copy's name, and ETag over that name and the
// layout's size. The lookups draw from a random three-rung ladder, a few
// titles and random catalog numbers, so the same (title, label) recurs with
// other numbers and a memo whose key left an input out would answer stale.
// Four goroutines share the memo, as a replica's requests do.
func TestRenditionMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	codecs := []video.Codec{video.H264, video.MPEG4, video.VP8, video.Theora}
	resolutions := []video.Resolution{video.R360p, video.R480p, video.R720p, video.R1080p}
	labels := []string{"a", "b", "c"}
	ladder := make([]video.Spec, len(labels))
	for i := range ladder {
		ladder[i] = video.Spec{
			Codec:      codecs[rng.IntN(len(codecs))],
			Res:        resolutions[rng.IntN(len(resolutions))],
			FPS:        []int{24, 25, 30}[rng.IntN(3)],
			GOPSeconds: 1 + rng.IntN(4),
			BitrateBps: 100_000 + rng.Int64N(4_000_000),
		}
	}
	var memo renditionMemo
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range 500 {
				rung := rng.IntN(len(labels))
				spec := ladder[rung]
				key := renditionKey{
					id:         1 + rng.Int64N(3),
					duration:   rng.Int64N(121),
					segSeconds: int64(spec.GOPSeconds * rng.IntN(5)),
					label:      labels[rung],
				}
				got, err := memo.get(key, spec, rung == 0)
				lay, wantErr := video.SegmentLayout(spec, int(key.duration), int(key.segSeconds))
				if (err != nil) != (wantErr != nil) {
					t.Errorf("%+v: memo error %v, SegmentLayout's %v", key, err, wantErr)
					return
				}
				if err != nil {
					continue
				}
				name := fmt.Sprintf("videos/%d-%s.vcf", key.id, key.label)
				if rung == 0 {
					name = fmt.Sprintf("videos/%d.vcf", key.id)
				}
				want := renditionMeta{lay: lay, name: name, etag: stream.ETag(name, lay.Size)}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: memo has %+v, fresh is %+v", key, got, want)
					return
				}
			}
		}(rand.New(rand.NewPCG(3, uint64(g))))
	}
	wg.Wait()
	if n := len(memo.m); n == 0 || n > maxRenditionMemo {
		t.Fatalf("memo holds %d entries", n)
	}
}
