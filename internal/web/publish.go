package web

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"

	"videocloud/internal/search"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/videodb"
)

// The title lifecycle. A catalog row names things that live outside it: its
// segment objects in HDFS (renditions × segments), its tenant's byte
// reservation and ledger entries (stored_bytes), its search document and
// place in the home page's recent list, and the copies of its playlists and
// segments in every replica's edge cache. publish is the one step that makes
// them — the transcode worker calls it with a whole ladder's objects, a live
// push with one object per rendition — and unpublish the one step that
// unmakes them. A row being written (processing, live) is not deletable: what
// it names is still changing.

// errBeingWritten refuses an unpublish that would race a publisher (409).
var errBeingWritten = errors.New("web: video is still being written")

// beingWritten reports whether a publisher may still add to what row names.
// Rows only leave this state (processing → ready/failed, live → ended).
func beingWritten(row videodb.Row) bool {
	status, _ := row["status"].(string)
	return status == statusProcessing || status == statusLive
}

// objectNames enumerates the objects that segments [from, to) of every
// rendition are stored as, rendition-major: with (0, the row's segments) it
// is everything a row names.
func objectNames(id int64, labels []string, from, to int) []string {
	var names []string
	for _, label := range labels {
		for k := from; label != "" && k < to; k++ {
			names = append(names, segmentPath(id, label, k))
		}
	}
	return names
}

// removeObjects deletes stored objects: a failed publish's partial writes,
// an unpublished row's everything.
func (s *Site) removeObjects(names []string) {
	for _, name := range names {
		if err := s.store.Remove(name); err != nil {
			log.Printf("web: removing %s: %v", name, err)
		}
	}
}

func documentOf(row videodb.Row) search.Document {
	title, _ := row["title"].(string)
	body, _ := row["description"].(string)
	return search.Document{ID: rowInt(row, "id"), Title: title, Body: body}
}

// reindex makes id's search document, the recent list and the related lists
// what its row says: the current title and description of a published row,
// nothing for one that is missing, processing or failed. The row is read and
// the index written under the fleet's row lock, so of two racing calls the
// later one reads the later row: a publisher cannot overwrite an edit with
// the title it read before it.
func (s *Site) reindex(id int64) {
	s.state.rowMu.Lock()
	defer s.state.rowMu.Unlock()
	if row, err := s.db.Get("videos", id); err == nil && published(row) {
		s.Index().Add(documentOf(row))
	} else {
		s.Index().Remove(id)
	}
	s.refreshRecent()
	s.state.dropRelated()
}

// publish stores the concatenation of objects[i]'s parts as names[i] and
// makes row id name them by applying changes (the new segment index; for an
// upload also its ready status).
//
// adm is the publisher's quota admission. Its byte reservation is corrected
// to the exact size BEFORE the first write, so the tenant's reservation always
// covers what HDFS holds: overshoot is impossible by construction. On success
// the bytes stay reserved as the row's stored_bytes until unpublish, and the
// ledger gets exactly one bytes_stored and one transcode_seconds event. On
// failure nothing this call wrote remains and adm still holds what it
// reserved: whoever admitted releases.
func (s *Site) publish(ctx context.Context, adm *admission, id int64, names []string, objects [][][]byte, changes videodb.Row) error {
	var exact int64
	for _, parts := range objects {
		for _, p := range parts {
			exact += int64(len(p))
		}
	}
	// Failure here means the admission-time estimate lied low and the exact
	// size busts the quota (AdjustBytes keeps the estimate reserved).
	if err := adm.ten.AdjustBytes(adm.estBytes, exact); err != nil {
		return fmt.Errorf("web: publishing video %d: %w", id, err)
	}
	adm.estBytes = exact
	ssp := trace.FromContext(ctx).StartChild("store.objects")
	for i, name := range names {
		if err := s.store.WriteFileCtx(ctx, name, objects[i]...); err != nil {
			ssp.SetError(err)
			ssp.End()
			s.removeObjects(names[:i])
			return fmt.Errorf("web: store %s failed: %w", name, err)
		}
	}
	ssp.End()
	// The row half, under the fleet's row lock: the row must still be in the
	// state the publisher found it in (an ended or deleted channel takes no
	// more segments), and unpublish, which reads the row under the same lock,
	// sees all of this publish or none of it.
	psp := trace.FromContext(ctx).StartChild("db.publish")
	s.state.rowMu.Lock()
	row, err := s.db.Get("videos", id)
	if err == nil && !beingWritten(row) {
		err = fmt.Errorf("web: video %d takes no more objects (status %v)", id, row["status"])
	}
	if err == nil {
		was, _ := row["stored_bytes"].(int64)
		changes["tenant"], changes["stored_bytes"] = adm.ten.Name(), was+exact
		// Index, from the row, before the row flips to ready: a title that
		// streams must already be searchable.
		s.Index().Add(documentOf(row))
		if err = s.db.Update("videos", id, changes); err == nil {
			s.refreshRecent()
		}
		s.state.dropRelated()
	}
	s.state.rowMu.Unlock()
	psp.SetError(err)
	psp.End()
	if err != nil {
		s.reindex(id)
		s.removeObjects(names)
		return err
	}
	s.tenants.Meter(adm.ten.Name(), tenant.KindBytesStored, float64(exact))
	s.tenants.Meter(adm.ten.Name(), tenant.KindTranscodeSeconds, adm.srcSecs)
	return nil
}

// unpublish takes row and everything it names out of the system; row is the
// caller's read of it. The row and its search document go first, under the
// row lock, and the lists derived from them are rebuilt after both: after
// that no publish can commit to it and no cache fill can validate against
// it, so what is purged and removed next stays gone.
func (s *Site) unpublish(row videodb.Row) error {
	if beingWritten(row) {
		return errBeingWritten
	}
	id := rowInt(row, "id")
	s.state.rowMu.Lock()
	row, err := s.db.Get("videos", id) // a publish may have committed since the caller's read
	if err == nil {
		if err = s.db.Delete("videos", id); err == nil {
			s.Index().Remove(id)
			s.refreshRecent()
			s.state.dropRelated()
		}
	}
	s.state.rowMu.Unlock()
	if err != nil {
		return err
	}
	renditions, _ := row["renditions"].(string)
	labels := strings.Split(renditions, ",")
	segs, _ := row["segments"].(int64)
	// Every replica's copies: playlists and segments in its edge cache, under
	// the keys delivery.go fills (segments carry no TTL: unpurged, a deleted
	// title would stream from each frontend that warmed it), and its
	// egress-attribution entry.
	keys := []string{playlistKey(nil, id, "")}
	for _, label := range labels {
		keys = append(keys, playlistKey(nil, id, label))
		for k := 0; k < int(segs); k++ {
			keys = append(keys, segmentKey(nil, id, label, k))
		}
	}
	for _, r := range s.state.frontends() {
		for _, key := range keys {
			r.edge.Invalidate(key)
		}
		r.tmu.Lock()
		delete(r.videoTenant, id)
		r.tmu.Unlock()
	}
	s.removeObjects(objectNames(id, labels, 0, int(segs)))
	// Return the stored-byte reservation to the owning tenant and meter the
	// deletion; pre-tenant rows carry neither column and release zero.
	if stored, _ := row["stored_bytes"].(int64); stored > 0 {
		owner, _ := row["tenant"].(string)
		if ten := s.tenants.Get(owner); ten != nil {
			ten.ReleaseBytes(stored)
		}
		s.tenants.Meter(owner, tenant.KindBytesDeleted, float64(stored))
	}
	comments, _ := s.db.Select("comments", "video_id", id)
	for _, c := range comments {
		s.db.Delete("comments", rowInt(c, "id"))
	}
	s.reg.Counter("videos_deleted").Inc()
	return nil
}
