package web

import (
	"context"
	"fmt"
	"strings"

	"videocloud/internal/search"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// Live ingest: a channel is a catalog row in status "live" whose segment
// index grows as the publisher pushes source chunks. Each push is converted
// to every rendition by the farm (the same one-pass conversion uploads get),
// renumbered onto the channel's global GOP timeline, and stored as the next
// segment object — exactly the layout VOD segmentation produces, so the
// playlist/segment handlers and the edge cache serve live and VOD
// identically. Viewers at the live edge re-poll the media playlist (no end
// marker while live); the edge cache's TTL bounds how stale their view is.
// Ending the channel flips it to "ended": the playlist gains its end marker
// and the accumulated segments remain watchable as VOD.

// CreateLiveChannel registers a live channel owned by uploaderID and
// returns its video id. The channel starts with an empty segment index.
func (s *Site) CreateLiveChannel(ctx context.Context, uploaderID int64, title, description string) (int64, error) {
	if strings.TrimSpace(title) == "" {
		return 0, fmt.Errorf("web: live channel needs a title")
	}
	id, err := s.db.Insert("videos", videodb.Row{
		"title": title, "description": description,
		"uploader_id": uploaderID,
		"status":      statusLive,
		"renditions":  strings.Join(s.labels, ","),
		"seg_seconds": int64(s.segSeconds),
	})
	if err != nil {
		return 0, err
	}
	s.Index().Add(search.Document{ID: id, Title: title, Body: description})
	s.invalidateRecent()
	s.reg.Counter("live_channels").Inc()
	return id, nil
}

// PushLiveSegment converts one source chunk and publishes it as the
// channel's next segment, returning its index. Chunks must be GOP-aligned
// and at most one segment long; a short chunk is allowed only as the final
// push before EndLiveChannel (it becomes the channel's short last segment,
// like VOD's remainder).
func (s *Site) PushLiveSegment(ctx context.Context, id int64, chunk []byte) (int, error) {
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
	results, err := s.convertPooled(ctx, chunk, s.specs)
	if err != nil {
		return 0, fmt.Errorf("web: live conversion failed: %w", err)
	}
	// The channel's global GOP clock: everything published so far, in GOPs.
	firstGOP := int(duration) / s.target.GOPSeconds
	k := int(segs)
	sp := trace.FromContext(ctx).StartChild("store.live_segment")
	for i, label := range s.labels {
		out, rerr := video.Rebase(results[i].Output, firstGOP)
		if rerr != nil {
			sp.SetError(rerr)
			sp.End()
			return 0, fmt.Errorf("web: renumbering live segment: %w", rerr)
		}
		if werr := s.store.WriteFileCtx(ctx, segmentPath(id, label, k), out); werr != nil {
			sp.SetError(werr)
			sp.End()
			return 0, fmt.Errorf("web: storing live segment: %w", werr)
		}
	}
	sp.End()
	if uerr := s.db.Update("videos", id, videodb.Row{
		"segments":         segs + 1,
		"duration_seconds": duration + int64(info.DurationSeconds),
	}); uerr != nil {
		return 0, uerr
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
