package web

import (
	"context"
	"fmt"
	"strings"

	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// Live ingest: a channel is a catalog row in status "live" whose segment
// index grows as the publisher pushes source chunks. Each push is converted
// to every rendition by the farm (the same one-pass conversion uploads get),
// renumbered onto the channel's global GOP timeline, and published like an
// upload's objects (publish.go: admitted against the channel's tenant,
// metered, unwound on failure) as the next segment — exactly the layout VOD
// segmentation produces, so the playlist/segment handlers and the edge cache
// serve live and VOD identically. Viewers at the live edge re-poll the media
// playlist (no end marker while live); the edge cache's TTL bounds how stale
// their view is. Ending the channel flips it to "ended": the playlist gains
// its end marker and the accumulated segments remain watchable as VOD.

// CreateLiveChannel registers a live channel owned by uploaderID, in the
// context's tenant (default when it carries none), and returns its video id.
// The channel starts with an empty segment index.
func (s *Site) CreateLiveChannel(ctx context.Context, uploaderID int64, title, description string) (int64, error) {
	if strings.TrimSpace(title) == "" {
		return 0, fmt.Errorf("web: live channel needs a title")
	}
	ten, _, ok := tenant.FromContext(ctx)
	if !ok {
		ten = s.tenants.Default()
	}
	id, err := s.db.Insert("videos", videodb.Row{
		"title": title, "description": description,
		"uploader_id": uploaderID,
		"status":      statusLive,
		"tenant":      ten.Name(),
		"renditions":  strings.Join(s.labels, ","),
		"seg_seconds": int64(s.segSeconds),
	})
	if err != nil {
		return 0, err
	}
	s.reindex(id)
	s.reg.Counter("live_channels").Inc()
	return id, nil
}

// PushLiveSegment converts one source chunk and publishes it as the
// channel's next segment, returning its index. Chunks must be GOP-aligned
// and at most one segment long; a short chunk is allowed only as the final
// push before EndLiveChannel (it becomes the channel's short last segment,
// like VOD's remainder).
func (s *Site) PushLiveSegment(ctx context.Context, id int64, chunk []byte) (k int, err error) {
	row, err := s.db.Get("videos", id)
	if err != nil {
		return 0, err
	}
	if status, _ := row["status"].(string); status != statusLive {
		return 0, fmt.Errorf("web: video %d is not a live channel (status %q)", id, status)
	}
	duration := rowInt(row, "duration_seconds")
	segs := rowInt(row, "segments")
	if segs > 0 && duration != segs*int64(s.segSeconds) {
		return 0, fmt.Errorf("web: channel %d already pushed a short segment; only EndLiveChannel may follow", id)
	}
	info, err := video.Probe(chunk)
	if err != nil {
		return 0, fmt.Errorf("web: unplayable live chunk: %w", err)
	}
	if info.DurationSeconds <= 0 || info.DurationSeconds > s.segSeconds ||
		info.GOPs*s.target.GOPSeconds != info.DurationSeconds {
		return 0, fmt.Errorf("web: live chunk is %ds in %d GOPs; want a GOP-aligned chunk of at most %ds",
			info.DurationSeconds, info.GOPs, s.segSeconds)
	}
	// Admitted like an upload, against the tenant the channel was created in.
	owner, _ := row["tenant"].(string)
	adm, err := s.admitUpload(s.tenants.Get(owner), len(chunk), info.DurationSeconds)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			adm.release()
		}
	}()
	ctx = tenant.WithContext(ctx, adm.ten, tenant.RoleWriter) // the HDFS writes are the channel tenant's
	results, err := s.convertPooled(ctx, chunk, s.specs)
	if err != nil {
		return 0, fmt.Errorf("web: live conversion failed: %w", err)
	}
	// The channel's global GOP clock: everything published so far, in GOPs.
	firstGOP := int(duration) / s.target.GOPSeconds
	k = int(segs)
	outs := make([][][]byte, len(results))
	for i, res := range results {
		seg, err := video.Rebase(res.Output, firstGOP)
		if err != nil {
			return 0, fmt.Errorf("web: renumbering live segment: %w", err)
		}
		outs[i] = [][]byte{seg}
	}
	if err = s.publish(ctx, adm, id, objectNames(id, s.labels, k, k+1), outs, videodb.Row{
		"segments":         segs + 1,
		"duration_seconds": duration + int64(info.DurationSeconds),
	}); err != nil {
		return 0, fmt.Errorf("web: storing live segment: %w", err)
	}
	s.reg.Counter("live_segments_published").Inc()
	return k, nil
}

// EndLiveChannel closes the channel: the media playlists gain their end
// marker (within the live-edge TTL) and the content stays watchable as
// segmented VOD.
func (s *Site) EndLiveChannel(ctx context.Context, id int64) error {
	row, err := s.db.Get("videos", id)
	if err != nil {
		return err
	}
	if status, _ := row["status"].(string); status != statusLive {
		return fmt.Errorf("web: video %d is not a live channel (status %q)", id, status)
	}
	if err := s.db.Update("videos", id, videodb.Row{"status": statusEnded}); err != nil {
		return err
	}
	s.reg.Counter("live_channels_ended").Inc()
	return nil
}
