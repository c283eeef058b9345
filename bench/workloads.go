package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named traffic mix. The names are fixed: later issues cite
// them.
type workload struct {
	name     string
	cfg      fleetCfg
	uploader bool // one of the C clients publishes; the rest view
	// zipfS is the exponent of the title popularity law; 0 is uniform.
	zipfS float64
	// windowChunks is the size of one /stream Range window in 64 KiB chunks.
	windowChunks int64
	// journey runs one iteration of a viewer's loop and reports whether
	// every response in it was correct.
	journey func(v *viewer) bool
}

const mib = 1 << 20

// Sizes are chosen against the shared catalog: 24 titles x 32 s at the
// shipped 2 Mbps target = 24 renditions of 8 MB (192 MB), each also stored
// as eight 1 MB delivery segments.
var workloads = []workload{
	// Everything the viewer touches fits the default 256 MiB block cache,
	// windows are the smallest a player asks for: per-request overhead
	// (ingress, middleware, hot cache, videodb, templates, the zero-copy
	// slice path) is the cost, DataNodes do nothing.
	{name: "vod-hot", zipfS: 0.9, windowChunks: 1, journey: (*viewer).browseAndWatch},
	// A 16 MiB block cache holds 4 of the 48 rendition blocks and titles
	// and offsets are uniform, so >= 90 % of stream requests go to a
	// DataNode: fusebridge -> hdfs.Client -> NameNode -> DataNode read +
	// checksum is the cost.
	{name: "vod-cold", cfg: fleetCfg{blockCacheBytes: 16 * mib}, windowChunks: 4, journey: (*viewer).watchCold},
	// 2 x 32 MiB of edge cache against 192 MB of segments under Zipf(1.1):
	// TinyLFU admission, LRU eviction and single-flight fills run all the
	// time and 1 MB bodies make bytes, not requests, the cost.
	{name: "abr-edge", cfg: fleetCfg{edgeCacheBytes: 32 * mib}, zipfS: 1.1, windowChunks: 1, journey: (*viewer).segmentedSession},
	// One uploader publishes and deletes beside vod-hot viewers: the write
	// path (probe, admission, fair queue, farm, segmenter, 2 stored copies
	// x RF 3, index add, recent-list invalidation) shares every layer with
	// the read path.
	{name: "publish-mix", uploader: true, zipfS: 0.9, windowChunks: 1, journey: (*viewer).browseAndWatch},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// vocabulary supplies title words; every title also carries a unique tag
// term so a search can be checked against one expected hit.
var vocabulary = []string{
	"cloud", "nebula", "kernel", "hadoop", "stream", "mountain", "river", "concert",
	"lecture", "harbor", "festival", "orchid", "railway", "lantern", "market", "typhoon",
	"temple", "campus", "robot", "violin", "sunrise", "marathon", "noodle", "bridge",
	"island", "puppet", "glacier", "bicycle", "meadow", "signal", "garden", "comet",
}

const (
	titleSeconds   = 32 // catalog titles
	publishSeconds = 30 // the uploader's sources
	publishPool    = 8
)

// title is one source video with its upload request and, once the reference
// rendition has been computed, what the site must serve for it.
type title struct {
	words   string // three vocabulary words
	tag     string // unique search term
	seconds int
	body    []byte // multipart upload body, built once

	size     int64    // rendition bytes
	chunkCRC []uint32 // CRC-32 of each whole 64 KiB chunk of the rendition
	segLen   []int64
	segCRC   []uint32
}

// uploadBoundary is fixed so the same seed gives byte-identical requests.
const uploadBoundary = "videocloud-bench-boundary-7c1f9e"

var uploadContentType = "multipart/form-data; boundary=" + uploadBoundary

func newTitle(rng *rand.Rand, tag string, seconds int) (*title, []byte, error) {
	w := make([]string, 3)
	for i := range w {
		w[i] = vocabulary[rng.IntN(len(vocabulary))]
	}
	t := &title{words: strings.Join(w, " "), tag: tag, seconds: seconds}
	src, err := genSource(seconds, rng.Uint64())
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	if err := mw.SetBoundary(uploadBoundary); err != nil {
		return nil, nil, err
	}
	mw.WriteField("title", t.words+" "+t.tag)
	mw.WriteField("description", "benchmark title "+t.tag)
	fw, err := mw.CreateFormFile("video", t.tag+".vcf")
	if err != nil {
		return nil, nil, err
	}
	fw.Write(src)
	if err := mw.Close(); err != nil {
		return nil, nil, err
	}
	t.body = b.Bytes()
	return t, src, nil
}

func (t *title) setReference(r rendition) {
	t.size = int64(len(r.whole))
	for off := 0; off+chunk <= len(r.whole); off += chunk {
		t.chunkCRC = append(t.chunkCRC, crc32.ChecksumIEEE(r.whole[off:off+chunk]))
	}
	for _, s := range r.segments {
		t.segLen = append(t.segLen, int64(len(s)))
		t.segCRC = append(t.segCRC, crc32.ChecksumIEEE(s))
	}
}

// catalog is every input of a run, made from the seed alone.
type catalog struct {
	titles  []*title // the shared library, seeded into every fleet
	pubs    []*title // the uploader's pool
	sources [][]byte // raw sources of titles then pubs, dropped once references exist
}

func newCatalog(seed uint64, nTitles int) (*catalog, error) {
	rng := rand.New(rand.NewPCG(seed, 0xca7a109))
	c := &catalog{}
	for i := 0; i < nTitles+publishPool; i++ {
		tag, secs := fmt.Sprintf("vt%02dq", i), titleSeconds
		if i >= nTitles {
			tag, secs = fmt.Sprintf("pub%02dq", i-nTitles), publishSeconds
		}
		t, src, err := newTitle(rng, tag, secs)
		if err != nil {
			return nil, err
		}
		if i < nTitles {
			c.titles = append(c.titles, t)
		} else {
			c.pubs = append(c.pubs, t)
		}
		c.sources = append(c.sources, src)
	}
	return c, nil
}

// setReferences computes what the site must serve for every title. It is
// generator work, kept out of setup_s.
func (c *catalog) setReferences(f *fleet) error {
	for i, t := range append(append([]*title(nil), c.titles...), c.pubs...) {
		r, err := f.expectedRendition(c.sources[i])
		if err != nil {
			return fmt.Errorf("reference rendition of %s: %w", t.tag, err)
		}
		t.setReference(r)
	}
	c.sources = nil
	return nil
}

// session is one seeded fleet as the clients see it.
type session struct {
	f      *fleet
	hc     *http.Client
	cookie string  // admin session
	ids    []int64 // site id of catalog title i
	seeded int64   // HDFS bytes held once the catalog is published
	// seededWritten is the replica bytes HDFS wrote to get there.
	seededWritten float64
}

func (s *session) close() {
	s.hc.CloseIdleConnections()
	s.f.close()
}

func (s *session) newClient(t *tally, rec *recorder) *client {
	return &client{hc: s.hc, base: s.f.base, tally: t, rec: rec}
}

// setUp boots a fleet and publishes the catalog through the site's own
// upload route as the admin user: this is what setup_s times.
func setUp(cfg fleetCfg, cat *catalog, nClients int, t *tally) (*session, time.Duration, error) {
	start := time.Now()
	f, err := bootFleet(cfg)
	if err != nil {
		return nil, 0, err
	}
	s := &session{f: f, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: nClients + 1, DisableCompression: true},
		// The site answers login, upload and delete with 303; the
		// benchmark reads those itself.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
	c := s.newClient(t, nil)
	_, hdr, _, ok := c.do(rUpload, http.MethodPost, "/login", "", "application/x-www-form-urlencoded",
		[]byte("username=admin&password=admin"), want{http.StatusSeeOther, -1})
	if ok {
		s.cookie, _, _ = strings.Cut(hdr.Get("Set-Cookie"), ";")
	}
	if !strings.HasPrefix(s.cookie, "session=") {
		s.close()
		return nil, 0, fmt.Errorf("set-up: admin login gave no session cookie")
	}
	c.cookie = s.cookie
	for _, tt := range cat.titles {
		id, ok := c.upload(tt)
		if !ok {
			s.close()
			return nil, 0, fmt.Errorf("set-up: upload of %s failed: %s", tt.tag, *t.firstErr.Load())
		}
		s.ids = append(s.ids, id)
	}
	for _, id := range s.ids {
		if !c.awaitPlayable(id, time.Millisecond) {
			s.close()
			return nil, 0, fmt.Errorf("set-up: title %d never became playable", id)
		}
	}
	took := time.Since(start)
	s.seeded = f.storedBytes()
	s.seededWritten = f.counters()["hdfs.bytes_written"]
	return s, took, nil
}

// upload POSTs a title and returns the id the site gave it.
func (c *client) upload(t *title) (int64, bool) {
	start := time.Now()
	_, hdr, _, ok := c.do(rUpload, http.MethodPost, "/upload", "", uploadContentType, t.body, want{http.StatusSeeOther, -1})
	if !ok {
		return 0, false
	}
	if c.rec != nil {
		if win := c.rec.at(time.Now()); win != nil {
			win.posts = append(win.posts, int64(time.Since(start)))
		}
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(hdr.Get("Location"), "/watch/"), 10, 64)
	if err != nil {
		c.tally.fail("POST /upload: Location %q names no video", hdr.Get("Location"))
		return 0, false
	}
	return id, true
}

// await polls path until ready accepts a response, for at most limit; what
// names the thing waited for. A poll is a wait, not an operation: it is
// neither counted nor timed, so a slower conversion cannot raise req_per_s.
// 503 is the site's "not yet"; any status besides it and 200 fails at once.
func (c *client) await(path, what string, every, limit time.Duration, ready func(status int, body []byte) bool) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		res, n, err := c.roundTrip(http.MethodGet, path, "", "", nil)
		switch {
		case err != nil:
			c.tally.fail("GET %s: %v", path, err)
			return false
		case res.StatusCode != http.StatusOK && res.StatusCode != http.StatusServiceUnavailable:
			c.tally.fail("GET %s: status %d while waiting for %s", path, res.StatusCode, what)
			return false
		case ready(res.StatusCode, c.buf[:n]):
			return true
		}
		time.Sleep(every)
	}
	c.tally.fail("GET %s: %s not seen after %v", path, what, limit)
	return false
}

// awaitPlayable polls the master playlist until it answers 200: the moment
// a player could start.
func (c *client) awaitPlayable(id int64, every time.Duration) bool {
	return c.await("/playlist/"+strconv.FormatInt(id, 10), "the conversion", every, 30*time.Second,
		func(status int, _ []byte) bool { return status == http.StatusOK })
}

// zipf picks ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// (uniformly for s = 0).
// Rank r is always catalog title r, whatever the seed: the ingress hashes
// title ids to frontends, so a seed-dependent ranking would change how the
// hot set splits over the two edge caches and make seeds incomparable.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) pick(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// viewer is one anonymous closed-loop player.
type viewer struct {
	*client
	w      *workload
	cat    *catalog
	ids    []int64
	rng    *rand.Rand
	titles zipf
}

func newViewer(c *client, w *workload, s *session, cat *catalog, seed uint64, n int) *viewer {
	return &viewer{
		client: c, w: w, cat: cat, ids: s.ids,
		rng:    rand.New(rand.NewPCG(seed, uint64(n)+1)),
		titles: newZipf(len(cat.titles), w.zipfS),
	}
}

// window picks the offset of a run of n back-to-back Range windows in t.
func (v *viewer) window(t *title, n int64) int64 {
	return v.rng.Int64N(int64(len(t.chunkCRC))-n*v.w.windowChunks+1) * chunk
}

// browseAndWatch: home -> search for two words of a title -> its watch page
// -> four sequential windows of its stream.
func (v *viewer) browseAndWatch() bool {
	i := v.titles.pick(v.rng)
	t, id := v.cat.titles[i], strconv.FormatInt(v.ids[i], 10)
	link := `href="/watch/` + id + `"`

	resp, deep, ok := v.get(rHome, "/", want{http.StatusOK, -1})
	if ok && deep {
		ok = v.mustContain("/", resp, "Recent uploads")
	}
	if !ok {
		return false
	}
	w := strings.Fields(t.words)
	q := "/search?q=" + w[v.rng.IntN(3)] + "+" + t.tag
	if resp, deep, ok = v.get(rSearch, q, want{http.StatusOK, -1}); ok && deep {
		ok = v.mustContain(q, resp, link)
	}
	if !ok {
		return false
	}
	if resp, deep, ok = v.get(rWatch, "/watch/"+id, want{http.StatusOK, -1}); ok && deep {
		ok = v.mustContain("/watch/"+id, resp, `data-src="/stream/`+id+`"`)
	}
	if !ok {
		return false
	}
	const windows = 4
	size := v.w.windowChunks * chunk
	off := v.window(t, windows)
	for k := int64(0); k < windows; k++ {
		if !v.getRange("/stream/"+id, off+k*size, size, t.chunkCRC) {
			return false
		}
	}
	return true
}

// watchCold: a title's watch page, then one window at a uniformly chosen
// offset.
func (v *viewer) watchCold() bool {
	i := v.titles.pick(v.rng)
	t, id := v.cat.titles[i], strconv.FormatInt(v.ids[i], 10)
	resp, deep, ok := v.get(rWatch, "/watch/"+id, want{http.StatusOK, -1})
	if ok && deep {
		ok = v.mustContain("/watch/"+id, resp, `data-src="/stream/`+id+`"`)
	}
	if !ok {
		return false
	}
	return v.getRange("/stream/"+id, v.window(t, 1), v.w.windowChunks*chunk, t.chunkCRC)
}

// segmentedSession: master playlist -> the media playlist it names -> every
// segment that playlist lists, in order, without sleeping.
func (v *viewer) segmentedSession() bool {
	i := v.titles.pick(v.rng)
	t, id := v.cat.titles[i], strconv.FormatInt(v.ids[i], 10)
	resp, _, ok := v.get(rPlaylist, "/playlist/"+id, want{http.StatusOK, -1})
	if !ok {
		return false
	}
	media := playlistURLs(resp, "rendition")
	if len(media) == 0 {
		v.tally.fail("GET /playlist/%s: no rendition listed", id)
		return false
	}
	if resp, _, ok = v.get(rPlaylist, media[0], want{http.StatusOK, -1}); !ok {
		return false
	}
	segs := playlistURLs(resp, "seg")
	if len(segs) != len(t.segLen) {
		v.tally.fail("GET %s: lists %d segments, want %d", media[0], len(segs), len(t.segLen))
		return false
	}
	for k, u := range segs {
		resp, deep, ok := v.get(rSegment, u, want{http.StatusOK, t.segLen[k]})
		if ok && deep {
			if got := crc32.ChecksumIEEE(resp); got != t.segCRC[k] {
				v.tally.fail("GET %s: CRC %08x, want %08x", u, got, t.segCRC[k])
				ok = false
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// playlistURLs returns the last field of every playlist line that starts
// with kind ("rendition <label> <bps> <url>", "seg <k> <secs> <url>").
func playlistURLs(data []byte, kind string) []string {
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == kind {
			out = append(out, f[len(f)-1])
		}
	}
	return out
}

// publish is the uploader's journey: POST a source, wait until a player
// could start it, check it is searchable and streams the target encoding,
// delete it. It returns the POST-to-playable time.
func (c *client) publish(t *title, target headerSpec) (time.Duration, bool) {
	start := time.Now()
	id, ok := c.upload(t)
	if !ok {
		return 0, false
	}
	if !c.awaitPlayable(id, 5*time.Millisecond) {
		return 0, false
	}
	playable := time.Since(start)
	if c.rec != nil {
		if win := c.rec.at(time.Now()); win != nil {
			win.srcSecs += int64(t.seconds)
		}
	}
	ids := strconv.FormatInt(id, 10)
	// The site flips the row to ready before it adds the title to the index
	// (web/queue.go), so a poll can land between the two: the title must be
	// searchable within a second, not at once.
	link := []byte(`href="/watch/` + ids + `"`)
	if !c.await("/search?q="+t.tag, "the title in the index", time.Millisecond, time.Second,
		func(status int, page []byte) bool { return status == http.StatusOK && bytes.Contains(page, link) }) {
		return 0, false
	}
	resp, _, _, ok := c.do(rStream, http.MethodGet, "/stream/"+ids, "bytes=0-65535", "", nil, want{http.StatusPartialContent, chunk})
	if !ok {
		return 0, false
	}
	if err := checkContainerHeader(resp, target, t.seconds); err != nil {
		c.tally.fail("GET /stream/%s: %v", ids, err)
		return 0, false
	}
	if crc32.ChecksumIEEE(resp) != t.chunkCRC[0] {
		c.tally.fail("GET /stream/%s: first window differs from the reference rendition", ids)
		return 0, false
	}
	_, _, _, ok = c.do(rDelete, http.MethodPost, "/watch/"+ids+"/delete", "", "", nil, want{http.StatusSeeOther, -1})
	return playable, ok
}

// checkContainerHeader reads the site's container header ("VCF1", a
// big-endian length, then JSON metadata) from the first window of a stream.
// The site's own prober needs the whole file, so the window is decoded here.
func checkContainerHeader(window []byte, want headerSpec, seconds int) error {
	if len(window) < 8 || string(window[:4]) != "VCF1" {
		return fmt.Errorf("not a media container")
	}
	n := int(binary.BigEndian.Uint32(window[4:8]))
	if 8+n > len(window) {
		return fmt.Errorf("container header of %d bytes exceeds the window", n)
	}
	var meta struct {
		Spec struct {
			Codec string `json:"codec"`
			Res   struct{ W, H int }
			FPS   int   `json:"fps"`
			Bps   int64 `json:"bitrate_bps"`
		} `json:"spec"`
		Seconds int `json:"duration_seconds"`
	}
	if err := json.Unmarshal(window[8:8+n], &meta); err != nil {
		return fmt.Errorf("container header: %v", err)
	}
	got := headerSpec{codec: meta.Spec.Codec, height: meta.Spec.Res.H, fps: meta.Spec.FPS, bitrateBps: meta.Spec.Bps}
	if got != want || meta.Seconds != seconds {
		return fmt.Errorf("stream is %+v of %d s, want %+v of %d s", got, meta.Seconds, want, seconds)
	}
	return nil
}
