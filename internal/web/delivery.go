package web

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"videocloud/internal/edge"
	"videocloud/internal/stream"
	"videocloud/internal/video"
)

// Segmented delivery: /playlist/{id} lists a title's renditions,
// /playlist/{id}/{quality} lists one rendition's time-indexed segments, and
// /segment/{id}/{quality}/{k} serves segment k's bytes. Every response is
// served through the replica's edge cache, so under fan-out the hot titles
// cost origin (HDFS for segments, the database for playlists) roughly one
// read per object per frontend instead of one per viewer. Playlists are
// cached with the live-edge TTL (they change: live channels grow, titles
// disappear); segments are write-once and cached without one. Warm segment
// hits go out on the same zero-copy vectored-write path as whole-file
// streaming: cache memory → net.Buffers → socket, no per-request copy.

// A cached segment must satisfy the zero-copy serving contract.
var _ stream.SliceRanger = (*edge.Content)(nil)

// segmentPath is where rendition label's segment k of a video lives in
// HDFS. Flat names under segments/ (no per-video directory level) keep the
// namespace layout identical to videos/.
func segmentPath(id int64, label string, k int) string {
	return fmt.Sprintf("segments/%d-%s-%d.vcf", id, label, k)
}

// errNotSegmented distinguishes "this row has no segment index" from a
// missing row.
var errNotSegmented = errors.New("web: video has no segments published")

// deliveryRow captures the catalog columns the delivery handlers need.
type deliveryRow struct {
	id         int64
	duration   int64
	segSeconds int64
	segments   int64
	live       bool
	labels     []string
}

// deliveryByRequest resolves the request's {id} to a segment-servable row.
// The error is user-facing via deliveryError.
func (s *Site) deliveryByRequest(r *http.Request) (deliveryRow, error) {
	var d deliveryRow
	row, err := s.videoByRequest(r)
	if err != nil {
		return d, err
	}
	// Tolerant reads throughout: rows written before segmented delivery
	// carry neither status nor segment columns and report errNotSegmented.
	status, _ := row["status"].(string)
	if status == statusProcessing {
		return d, errStillProcessing
	}
	d.id = rowInt(row, "id")
	d.duration = rowInt(row, "duration_seconds")
	d.segSeconds, _ = row["seg_seconds"].(int64)
	d.segments, _ = row["segments"].(int64)
	d.live = status == statusLive
	if labels := rowString(row, "renditions"); labels != "" {
		d.labels = strings.Split(labels, ",")
	}
	if d.segSeconds <= 0 || d.segments <= 0 || len(d.labels) == 0 {
		return d, errNotSegmented
	}
	return d, nil
}

var errStillProcessing = errors.New("web: video is still processing")

func (s *Site) deliveryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errStillProcessing):
		w.Header().Set("Retry-After", "2")
		http.Error(w, "video is still processing", http.StatusServiceUnavailable)
	case errors.Is(err, errNotSegmented):
		http.Error(w, "no segmented delivery for this video", http.StatusNotFound)
	default:
		http.Error(w, "video not found", http.StatusNotFound)
	}
}

// specForLabel maps a stored rendition label back to its encoding spec.
func (s *Site) specForLabel(label string) (video.Spec, bool) {
	if label == QualityLabel(s.target) {
		return s.target, true
	}
	for _, r := range s.renditions {
		if label == QualityLabel(r) {
			return r, true
		}
	}
	return video.Spec{}, false
}

// handlePlaylistMaster serves /playlist/{id}: the title's rendition ladder.
func (s *Site) handlePlaylistMaster(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("edge_playlist_requests").Inc()
	key := "pl/" + r.PathValue("id")
	data, src, err := s.edge.GetOrFill(key, s.liveTTL, func() ([]byte, error) {
		d, err := s.deliveryByRequest(r)
		if err != nil {
			return nil, err
		}
		var m stream.MasterPlaylist
		for _, label := range d.labels {
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
	})
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	if src == edge.SourceFill {
		s.reg.Counter("edge_playlist_origin").Inc()
	}
	w.Header().Set("Content-Type", stream.PlaylistContentType)
	w.Write(data)
}

// handlePlaylistMedia serves /playlist/{id}/{quality}: one rendition's
// segment index. A live channel's playlist omits the end marker and keeps
// growing; the TTL bounds how stale a cached copy can be, so live viewers
// discover fresh segments within LiveEdgeTTL without every poll hitting the
// database.
func (s *Site) handlePlaylistMedia(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("edge_playlist_requests").Inc()
	label := r.PathValue("quality")
	key := "pl/" + r.PathValue("id") + "/" + label
	data, src, err := s.edge.GetOrFill(key, s.liveTTL, func() ([]byte, error) {
		d, err := s.deliveryByRequest(r)
		if err != nil {
			return nil, err
		}
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
	})
	if err != nil {
		s.deliveryError(w, err)
		return
	}
	if src == edge.SourceFill {
		s.reg.Counter("edge_playlist_origin").Inc()
	}
	w.Header().Set("Content-Type", stream.PlaylistContentType)
	w.Write(data)
}

func hasLabel(labels []string, label string) bool {
	for _, l := range labels {
		if l == label {
			return true
		}
	}
	return false
}

// handleSegment serves /segment/{id}/{quality}/{k} through the edge cache.
// The warm path touches neither the database nor HDFS: cache lookup, then
// the zero-copy slice write. Only a miss validates the request against the
// catalog and reads the segment object from origin HDFS (single-flight, so
// a flash crowd on an uncached segment costs one read).
func (s *Site) handleSegment(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("edge_segment_requests").Inc()
	key := "seg/" + r.PathValue("id") + "/" + r.PathValue("quality") + "/" + r.PathValue("k")
	if data, ok := s.edge.Get(key); ok {
		s.serveSegment(w, r, key, data)
		return
	}
	data, src, err := s.edge.GetOrFill(key, 0, func() ([]byte, error) {
		return s.readSegmentOrigin(r)
	})
	if err != nil {
		var storeErr *segmentStorageError
		if errors.As(err, &storeErr) {
			s.reg.Counter("stream_storage_errors").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.hdfsBreaker.RetryAfterSeconds()))
			http.Error(w, "video storage temporarily unavailable", http.StatusServiceUnavailable)
			return
		}
		s.deliveryError(w, err)
		return
	}
	if src == edge.SourceFill {
		s.reg.Counter("edge_segment_origin").Inc()
	}
	s.serveSegment(w, r, key, data)
}

// serveSegment writes cached segment bytes on the zero-copy slice path,
// paced through the replica's NIC model like every other media response.
// Egress is attributed to the video owner's tenant via the per-replica
// attribution cache, so warm edge hits stay off the database.
func (s *Site) serveSegment(w http.ResponseWriter, r *http.Request, name string, data []byte) {
	onFallback := func(string) { s.reg.Counter("stream_fallback_total").Inc() }
	content := edge.NewContent(data)
	mw := &meteredWriter{ResponseWriter: w}
	var out http.ResponseWriter = mw
	if s.streamPacer != nil {
		out = pacedWriter{ResponseWriter: mw, p: s.streamPacer}
	}
	// In-memory content always resolves a window parseRange accepted.
	if err := stream.ServeWithFallback(out, r, name, content, onFallback); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if id, err := strconv.ParseInt(r.PathValue("id"), 10, 64); err == nil {
		s.meterEgress(s.ownerTenant(id), mw.n)
	}
}

// segmentStorageError marks origin failures that should shed load (503)
// rather than 404.
type segmentStorageError struct{ err error }

func (e *segmentStorageError) Error() string { return e.err.Error() }
func (e *segmentStorageError) Unwrap() error { return e.err }

// readSegmentOrigin is the miss path: validate against the catalog, then
// read the segment object from HDFS under the streaming circuit breaker.
func (s *Site) readSegmentOrigin(r *http.Request) ([]byte, error) {
	d, err := s.deliveryByRequest(r)
	if err != nil {
		return nil, err
	}
	label := r.PathValue("quality")
	if !hasLabel(d.labels, label) {
		return nil, errNotSegmented
	}
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil || k < 0 || int64(k) >= d.segments {
		return nil, fmt.Errorf("web: segment %q out of range: %w", r.PathValue("k"), errNotSegmented)
	}
	if !s.hdfsBreaker.Allow() {
		return nil, &segmentStorageError{errors.New("web: breaker open")}
	}
	data, err := s.store.ReadFileCtx(r.Context(), segmentPath(d.id, label, k))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The row's problem, not the store's: don't trip the breaker.
			s.hdfsBreaker.Success()
			return nil, errNotSegmented
		}
		s.hdfsBreaker.Failure()
		log.Printf("web: storage failure reading %s (request %s): %v",
			segmentPath(d.id, label, k), requestIDFrom(r.Context()), err)
		return nil, &segmentStorageError{err}
	}
	s.hdfsBreaker.Success()
	return data, nil
}

// DeliveryConfig reports the segmentation parameters (experiments size
// their load against them).
func (s *Site) DeliveryConfig() (segSeconds int, liveTTL time.Duration) {
	return s.segSeconds, s.liveTTL
}
