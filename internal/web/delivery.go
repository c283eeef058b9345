package web

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"videocloud/internal/edge"
	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/stream"
	"videocloud/internal/trace"
	"videocloud/internal/video"
)

// Delivery: a published rendition is stored once, as its segment objects.
// /playlist/{id} lists a title's renditions, /playlist/{id}/{quality} lists
// one rendition's time-indexed segments, /segment/{id}/{quality}/{k} serves
// segment k's bytes, and /stream/{id}[?quality=] serves the whole-file
// container those objects were cut from, assembled per window (renditionFile).
// Each route parses its own path (mediaTail), and Site.ServeHTTP calls it
// without the mux's matching (mediaRoute), so routing a warm request
// allocates nothing.
// Playlist and segment responses are served through the replica's edge
// cache, so under fan-out the hot titles cost origin (HDFS for segments, the
// database for playlists) roughly one read per object per frontend instead
// of one per viewer. Playlists are cached with the live-edge TTL (they
// change: live channels grow); segments are write-once and cached without
// one; unpublish purges both from every replica (publish.go). Warm segment
// hits and stream windows leave through the one media response function,
// stream.ServeTagged: cache memory → response writer, one Write per view and
// no per-request copy, whatever Range the client sends.

// Cached segments and assembled renditions must satisfy the zero-copy serving
// contract.
var (
	_ stream.SliceRanger = (*edge.Content)(nil)
	_ stream.SliceRanger = (*renditionFile)(nil)
)

// segmentPath is where rendition label's segment k of a video lives in HDFS:
// the only stored form of a rendition, and the only place its name is
// spelled. Flat names under segments/, no per-video directory level.
func segmentPath(id int64, label string, k int) string {
	return "segments/" + strconv.FormatInt(id, 10) + "-" + label + "-" + strconv.Itoa(k) + ".vcf"
}

// errNotSegmented distinguishes "this row has no stored rendition to serve"
// (a failed conversion, a malformed row, a lost object) from a missing row.
var errNotSegmented = errors.New("web: video has no segments published")

var errStillProcessing = errors.New("web: video is still processing")

// errStoreUnavailable marks failures of the store itself, which shed load
// (503 + Retry-After) rather than 404. Every segment-object read sits behind
// the streaming circuit breaker: while the store is down, requests fail fast
// with this instead of stacking on a dead backend, and metadata pages keep
// serving from the database, so the site degrades rather than collapses.
var errStoreUnavailable = errors.New("web: video storage unavailable")

// deliveryRow captures the catalog columns the delivery handlers need.
type deliveryRow struct {
	id         int64
	duration   int64
	segSeconds int64
	segments   int64
	live       bool
	tenant     string
	labels     string // the renditions column: comma-separated, target first
}

// deliveryCols are the catalog columns of a deliveryRow, indexed by the dc
// constants.
var deliveryCols = []string{"id", "status", "duration_seconds", "seg_seconds", "segments", "tenant", "renditions"}

const (
	dcID = iota
	dcStatus
	dcDuration
	dcSegSeconds
	dcSegments
	dcTenant
	dcRenditions
)

// deliveryByID resolves title id to a servable row for /stream, /playlist
// and /segment alike. The error is user-facing via deliveryError; id and live
// are set whenever the row exists and has left processing.
func (s *Site) deliveryByID(ctx context.Context, id int64) (deliveryRow, error) {
	var d deliveryRow
	p, err := s.project(ctx, id, deliveryCols)
	if err != nil {
		return d, err
	}
	// Tolerant reads throughout: a drifted row carries neither status nor
	// segment columns and reports errNotSegmented.
	status, _ := p.vals[dcStatus].(string)
	if status == statusProcessing {
		return d, errStillProcessing
	}
	d.id = p.int(dcID)
	d.duration = p.int(dcDuration)
	d.segSeconds, _ = p.vals[dcSegSeconds].(int64)
	d.segments, _ = p.vals[dcSegments].(int64)
	d.live = status == statusLive
	d.tenant, _ = p.vals[dcTenant].(string)
	d.labels = p.str(dcRenditions)
	if d.segSeconds <= 0 || d.segments <= 0 || d.labels == "" {
		return d, errNotSegmented
	}
	return d, nil
}

// mediaTail splits a media or watch request's path after its first segment,
// the route's name, into the values the route's ServeMux patterns of old
// (/stream/{id}, /playlist/{id}[/{quality}], /segment/{id}/{quality}/{k},
// /watch/{id}) gave their wildcards, split as ServeMux splits: on the escaped path, each
// segment unescaped, none empty (so no trailing slash) and none a lone
// escaped slash. n is how many there are, or 0 when the path has more than
// three or one that no wildcard matched. A path the client did not escape
// is split as it stands, without an allocation.
func mediaTail(r *http.Request) (tail [3]string, n int) {
	path, escaped := r.URL.Path, r.URL.RawPath != ""
	if escaped {
		path = r.URL.EscapedPath()
	}
	_, rest, _ := strings.Cut(strings.TrimPrefix(path, "/"), "/")
	for {
		seg, more, found := strings.Cut(rest, "/")
		if escaped {
			if u, err := url.PathUnescape(seg); err == nil {
				seg = u
			}
		}
		if n == len(tail) || seg == "" || seg == "/" {
			return tail, 0
		}
		tail[n] = seg
		n++
		if !found {
			return tail, n
		}
		rest = more
	}
}

// segmentKey is the edge-cache key of segment k of a title's rendition
// label, seg/<id>/<label>/<k>, and playlistKey that of its ladder, pl/<id>,
// or of one rendition's segment index, pl/<id>/<label>. Unpublish purges by
// the same functions. Each appends to buf and returns a string that views
// buf's bytes: a handler passes a stack array, so a hit spends no allocation
// on its key (the cache copies a key it keeps, edge.Cache.Acquire).
func segmentKey(buf []byte, id int64, label string, k int) string {
	buf = append(playlistAppend(append(buf, "seg/"...), id, label), '/')
	return bytesView(strconv.AppendInt(buf, int64(k), 10))
}

func playlistKey(buf []byte, id int64, label string) string {
	return bytesView(playlistAppend(append(buf, "pl/"...), id, label))
}

func playlistAppend(buf []byte, id int64, label string) []byte {
	buf = strconv.AppendInt(buf, id, 10)
	if label != "" {
		buf = append(append(buf, '/'), label...)
	}
	return buf
}

// bytesView is b as a string without a copy; b must not change after.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

func (s *Site) deliveryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errStoreUnavailable):
		w.Header().Set("Retry-After", strconv.Itoa(s.hdfsBreaker.RetryAfterSeconds()))
		http.Error(w, "video storage temporarily unavailable", http.StatusServiceUnavailable)
	case errors.Is(err, errStillProcessing):
		w.Header().Set("Retry-After", "2")
		http.Error(w, "video is still processing", http.StatusServiceUnavailable)
	case errors.Is(err, errNotSegmented):
		http.Error(w, "no segmented delivery for this video", http.StatusNotFound)
	default:
		http.Error(w, "video not found", http.StatusNotFound)
	}
}

// storeFailure tells the breaker about a segment-object read that failed
// before anything was written to the client, and classifies it for
// deliveryError: a missing or misshapen object is the row's problem, not the
// store's, and must not trip the breaker.
func (s *Site) storeFailure(ctx context.Context, name string, err error) error {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, errNotSegmented) {
		s.hdfsBreaker.Success()
		return errNotSegmented
	}
	s.hdfsBreaker.Failure()
	s.reg.Counter("stream_storage_errors").Inc()
	log.Printf("web: storage failure reading %s (request %s): %v", name, requestIDFrom(ctx), err)
	return errStoreUnavailable
}

// specForLabel maps a stored rendition label back to its encoding spec.
func (s *Site) specForLabel(label string) (video.Spec, bool) {
	for i, l := range s.labels {
		if l == label {
			return s.specs[i], true
		}
	}
	return video.Spec{}, false
}

// handlePlaylist serves /playlist/{id}, the title's rendition ladder, and
// /playlist/{id}/{quality}, one rendition's segment index, through the edge
// cache; on a miss the playlist is rendered from the resolved row. Playlists
// are cached with the live-edge TTL: a live channel's omits the end marker
// and keeps growing, so viewers discover fresh segments within LiveEdgeTTL
// without every poll hitting the database.
func (s *Site) handlePlaylist(w http.ResponseWriter, r *http.Request) {
	tail, n := mediaTail(r)
	if n != 1 && n != 2 {
		http.NotFound(w, r)
		return
	}
	s.plRequests.Inc()
	id, err := parseVideoID(tail[0])
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	label := tail[1] // "" for the ladder
	var kb [64]byte
	data, src, err := s.edge.GetOrFill(playlistKey(kb[:0], id, label), s.liveTTL, func() ([]byte, error) {
		d, err := s.deliveryByID(r.Context(), id)
		if err != nil {
			return nil, err
		}
		if label == "" {
			return s.masterPlaylist(d)
		}
		return mediaPlaylist(d, label)
	})
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	if src == edge.SourceFill {
		s.plOrigin.Inc()
	}
	w.Header().Set("Content-Type", stream.PlaylistContentType)
	w.Write(data)
}

// masterPlaylist renders a title's rendition ladder.
func (s *Site) masterPlaylist(d deliveryRow) ([]byte, error) {
	var m stream.MasterPlaylist
	for _, label := range strings.Split(d.labels, ",") {
		spec, ok := s.specForLabel(label)
		if !ok {
			continue // label from a config this replica doesn't know
		}
		m.Renditions = append(m.Renditions, stream.Rendition{
			Label:        label,
			BandwidthBps: spec.BitrateBps,
			URL:          fmt.Sprintf("/playlist/%d/%s", d.id, label),
		})
	}
	if len(m.Renditions) == 0 {
		return nil, errNotSegmented
	}
	return m.Marshal(), nil
}

// mediaPlaylist renders one rendition's segment index.
func mediaPlaylist(d deliveryRow, label string) ([]byte, error) {
	if !hasLabel(d.labels, label) {
		return nil, errNotSegmented
	}
	m := stream.MediaPlaylist{TargetDuration: int(d.segSeconds), Live: d.live}
	for k := 0; k < int(d.segments); k++ {
		m.Segments = append(m.Segments, stream.SegmentRef{
			Index:           k,
			DurationSeconds: video.SegmentPlaySeconds(int(d.duration), int(d.segSeconds), k),
			URL:             fmt.Sprintf("/segment/%d/%s/%d", d.id, label, k),
		})
	}
	return m.Marshal(), nil
}

// hasLabel reports whether a renditions column lists label.
func hasLabel(labels, label string) bool {
	for labels != "" {
		l, rest, _ := strings.Cut(labels, ",")
		if l == label {
			return true
		}
		labels = rest
	}
	return false
}

// handleSegment serves /segment/{id}/{quality}/{k} through the edge cache,
// one lookup per request: the warm path touches neither the database nor
// HDFS, cache lookup then the zero-copy slice write, with the ETag the entry
// was filled with. Only a miss validates the request against the catalog
// and pins the segment object's extents in the HDFS block cache
// (single-flight, so a flash crowd on an uncached segment costs one read).
// The response holds a reference on the entry until its body is written, so
// an eviction or purge meanwhile leaves its views valid. Egress is
// attributed to the video owner's tenant via the per-replica attribution
// cache, so warm edge hits stay off the database.
func (s *Site) handleSegment(w http.ResponseWriter, r *http.Request) {
	tail, n := mediaTail(r)
	if n != 3 {
		http.NotFound(w, r)
		return
	}
	s.segRequests.Inc()
	id, err := parseVideoID(tail[0])
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	label := tail[1]
	k, err := strconv.Atoi(tail[2])
	if err != nil || !canonicalNumber(tail[2]) {
		s.deliveryError(w, fmt.Errorf("web: bad segment index %q: %w", tail[2], errNotSegmented))
		return
	}
	var kb [64]byte
	key := segmentKey(kb[:0], id, label, k)
	content, src, err := s.edge.Acquire(key, func() (*edge.Content, error) {
		return s.pinSegmentOrigin(r.Context(), key, id, label, k)
	})
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	defer content.Release()
	if src == edge.SourceFill {
		s.segOrigin.Inc()
	}
	// Cached content always resolves a window parseRange accepted.
	written, err := s.serveMedia(w, r, content.ETag(), content)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.meterEgress(s.ownerTenant(id), written)
}

// serveMedia writes content, whose validator is etag, with
// stream.ServeTagged, paced through the replica's NIC-model token bucket,
// and returns the media body bytes written: the publisher's tenant pays for
// delivery, and for nothing else (a 416's error text, a HEAD). A non-nil
// error means the content could not produce the window and nothing has been
// written.
func (s *Site) serveMedia(w http.ResponseWriter, r *http.Request, etag string, content stream.SliceRanger) (int64, error) {
	if s.streamPacer != nil {
		w = pacedWriter{ResponseWriter: w, p: s.streamPacer}
	}
	return stream.ServeTagged(w, r, etag, content)
}

// pinSegmentOrigin is the miss path for the segment cached under key:
// validate against the catalog, then resolve the whole segment object to
// block-cache views under the streaming circuit breaker, before any status
// line, so an outage still answers 503. The content keeps the object's
// reader open, holding the extents it views, and copies nothing; the edge's
// budget counts at least half those extents' whole arrays (edge.Pin). Its
// ETag is the key's, taken here once for every hit.
func (s *Site) pinSegmentOrigin(ctx context.Context, key string, id int64, label string, k int) (*edge.Content, error) {
	d, err := s.deliveryByID(ctx, id)
	if err != nil {
		return nil, err
	}
	if !hasLabel(d.labels, label) {
		return nil, errNotSegmented
	}
	if int64(k) >= d.segments {
		return nil, fmt.Errorf("web: segment %d out of range: %w", k, errNotSegmented)
	}
	if !s.hdfsBreaker.Allow() {
		return nil, errStoreUnavailable
	}
	name := segmentPath(d.id, label, k)
	rd, err := s.store.OpenSeekerCtx(ctx, name)
	if err != nil {
		return nil, s.storeFailure(ctx, name, err)
	}
	views, err := rd.AppendRangeSlices(nil, 0, rd.Size())
	if err != nil {
		rd.Close()
		return nil, s.storeFailure(ctx, name, err)
	}
	s.hdfsBreaker.Success()
	return edge.Pin(views, rd, rd.PinnedBytes(), stream.ETag(key, rd.Size())), nil
}

// handleStream serves /stream/{id}[?quality=label]: the rendition's whole-file
// container with full Range support, the paper's draggable time bar.
func (s *Site) handleStream(w http.ResponseWriter, r *http.Request) {
	tail, n := mediaTail(r)
	if n != 1 {
		http.NotFound(w, r)
		return
	}
	id, err := parseVideoID(tail[0])
	var d deliveryRow
	if err == nil {
		d, err = s.deliveryByID(r.Context(), id)
	}
	if d.live {
		// A channel still publishing has no stable size or ETag to range
		// over; ended, it streams like any title.
		http.Error(w, fmt.Sprintf("segmented delivery only: use /playlist/%d", d.id), http.StatusNotFound)
		return
	}
	if err == nil {
		err = s.streamRendition(w, r, d)
	}
	if errors.Is(err, errNotSegmented) {
		// A failed conversion, a malformed row or a lost object.
		http.Error(w, "video file not available", http.StatusInternalServerError)
	} else if err != nil {
		s.deliveryError(w, err)
	}
}

// streamRendition answers a /stream request for a resolved row. A non-nil
// error means nothing has been written to w.
func (s *Site) streamRendition(w http.ResponseWriter, r *http.Request, d deliveryRow) error {
	// The span covers the whole answer once the row is resolved: choosing the
	// rendition, serving the window, releasing the block-cache references
	// behind it (a last Release can run the cache's evictor or give an array
	// back) and metering it. Ended last, after the deferred Close.
	ctx := r.Context()
	ssp := trace.FromContext(ctx).StartChild("stream.serve")
	defer ssp.End()
	// quality=<label> selects a rendition; the default is the target. (The
	// bare URL skips FormValue, which allocates its maps to find nothing.)
	label := s.labels[0]
	if r.URL.RawQuery != "" {
		if q := r.FormValue("quality"); q != "" {
			label = q
		}
	}
	spec, known := s.specForLabel(label)
	if !known || !hasLabel(d.labels, label) {
		http.Error(w, fmt.Sprintf("no %s rendition (have %s)", label, d.labels),
			http.StatusNotFound)
		return nil
	}
	key := renditionKey{id: d.id, duration: d.duration, segSeconds: d.segSeconds, label: label}
	meta, err := s.renditions.get(key, spec, label == s.labels[0])
	if err != nil {
		return fmt.Errorf("web: video %d: %v: %w", d.id, err, errNotSegmented)
	}
	if !s.hdfsBreaker.Allow() {
		return errStoreUnavailable
	}
	f := &renditionFile{ctx: ctx, store: s.store, healthy: s.hdfsBreaker, id: d.id, label: label, lay: meta.lay}
	f.open = f.first[:0]
	defer f.Close() // releases the block-cache references behind the response's slices
	ssp.Annotate("path", meta.name)
	// Opening an object only consults NameNode metadata; dead DataNodes
	// surface when the window is read. The slice path resolves the window —
	// every object it touches — before it writes a status line, so a window
	// reaching a block with no live replica is a storage failure the client
	// can be told about, whatever the state of the bytes before it.
	n, err := s.serveMedia(w, r, meta.etag, f)
	ssp.SetError(err)
	if err != nil {
		return s.storeFailure(ctx, meta.name, err)
	}
	s.hdfsBreaker.Success() // for responses that read nothing: HEAD, 416
	s.streamRequests.Inc()
	s.meterEgress(d.tenant, n)
	return nil
}

// renditionKey is what a rendition's serving metadata is computed from: the
// title, the rendition's label (a replica's ladder fixes the spec behind
// it), and the two catalog numbers its layout follows.
type renditionKey struct {
	id, duration, segSeconds int64
	label                    string
}

// renditionMeta is what serving a rendition needs that never changes for its
// key: the whole-file layout, the representation's name and its ETag. The
// name is the one the whole-file copy was stored under, so a rendition's
// ETag is what it was when /stream read that copy.
type renditionMeta struct {
	lay  video.Layout
	name string
	etag string
}

// maxRenditionMemo bounds a replica's rendition memo: at this many entries
// it starts over, keeping its buckets. An entry is one (title, rendition)
// pair, about 470 bytes with its header, so a full memo holds about 1.9 MB.
// A catalog with more pairs than this in play loses only the memo's saving:
// a miss allocates what /stream did per request without the memo
// (TestAllocRenditionMemoPastBound).
const maxRenditionMemo = 4096

// renditionMemo holds a replica's renditionMeta by key. It is pure: an entry
// is a function of its key, which covers every input, so a title that is
// edited, re-published or deleted needs no invalidation — a changed row is a
// new key, and a gone title's entry is never asked for again.
type renditionMemo struct {
	mu sync.RWMutex
	m  map[renditionKey]renditionMeta
}

// get returns key's metadata for the rendition at spec; primary says the
// label is the ladder's first, whose whole-file copy had no label suffix.
func (rm *renditionMemo) get(key renditionKey, spec video.Spec, primary bool) (renditionMeta, error) {
	rm.mu.RLock()
	meta, ok := rm.m[key]
	rm.mu.RUnlock()
	if ok {
		return meta, nil
	}
	lay, err := video.SegmentLayout(spec, int(key.duration), int(key.segSeconds))
	if err != nil {
		return renditionMeta{}, err
	}
	suffix := ".vcf"
	if !primary {
		suffix = "-" + key.label + ".vcf"
	}
	name := "videos/" + strconv.FormatInt(key.id, 10) + suffix
	meta = renditionMeta{lay: lay, name: name, etag: stream.ETag(name, lay.Size)}
	rm.mu.Lock()
	if rm.m == nil {
		rm.m = make(map[renditionKey]renditionMeta)
	} else if len(rm.m) >= maxRenditionMemo {
		clear(rm.m)
	}
	rm.m[key] = meta
	rm.mu.Unlock()
	return meta, nil
}

// renditionFile presents one rendition's segment objects as the whole-file
// container they were cut from (video.Layout): the synthesized header, then
// each object's GOP run. It opens only the objects a window touches and hands
// back the extent-cache views their readers do, referenced until Close.
type renditionFile struct {
	ctx   context.Context
	store *fusebridge.Mount
	// healthy hears of every window resolved, before the status line goes
	// out: a half-open probe is settled then, not after a slow client has
	// drained the body.
	healthy *breaker
	id      int64
	label   string
	lay     video.Layout
	open    []openSegment
	first   [2]openSegment // backs open: a Range window rarely touches more
}

type openSegment struct {
	k  int
	rd *hdfs.Reader
}

// Size is the whole file's length.
func (f *renditionFile) Size() int64 { return f.lay.Size }

// segment returns segment object k's reader, opening it on first use.
func (f *renditionFile) segment(k int) (*hdfs.Reader, error) {
	for _, o := range f.open {
		if o.k == k {
			return o.rd, nil
		}
	}
	rd, err := f.store.OpenSeekerCtx(f.ctx, segmentPath(f.id, f.label, k))
	if err != nil {
		return nil, err
	}
	f.open = append(f.open, openSegment{k, rd})
	return rd, nil
}

// AppendRangeSlices implements stream.SliceRanger with hdfs.Reader's
// contract: views of [off, off+length) clamped to EOF, io.EOF at or past it.
// Its one caller, stream.ServeTagged, passes off >= 0.
func (f *renditionFile) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	if off >= f.lay.Size {
		return dst, io.EOF
	}
	length = min(length, f.lay.Size-off)
	if hdr := int64(len(f.lay.Header)); off < hdr {
		n := min(length, hdr-off)
		dst = append(dst, f.lay.Header[off:off+n])
		off, length = off+n, length-n
	}
	for length > 0 {
		k, fromEnd := f.lay.Locate(off)
		rd, err := f.segment(k)
		if err != nil {
			return dst, err
		}
		if rd.Size() <= fromEnd {
			return dst, fmt.Errorf("web: %s holds %d bytes, no room for its GOP run: %w",
				segmentPath(f.id, f.label, k), rd.Size(), errNotSegmented)
		}
		n := min(length, fromEnd)
		if dst, err = rd.AppendRangeSlices(dst, rd.Size()-fromEnd, n); err != nil {
			return dst, err
		}
		off, length = off+n, length-n
	}
	f.healthy.Success()
	return dst, nil
}

// Close releases every opened object's cache references.
func (f *renditionFile) Close() {
	for _, o := range f.open {
		o.rd.Close()
	}
	f.open = nil
}

// DeliveryConfig reports the segmentation parameters (experiments size
// their load against them).
func (s *Site) DeliveryConfig() (segSeconds int, liveTTL time.Duration) {
	return s.segSeconds, s.liveTTL
}
