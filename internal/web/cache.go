package web

import (
	"log"

	"videocloud/internal/videodb"
)

// homeRecent is how many recent uploads the home page lists.
const homeRecent = 10

// Two things pages read would otherwise cost the store a read per request —
// the home page's recent-uploads list (a videodb scan per GET /) and the
// uploader-id → username map (a users lookup per rendered video). Both are
// fleet state: one copy however many frontends serve it.

// published reports whether row is public: found by search and listed on the
// home page. A row whose conversion is in flight or failed is not; a row with
// no status (written before the column existed) counts as ready. The live
// index (reindex), the re-index corpus (Documents) and the recent list
// (refreshRecent) all ask this one question.
func published(row videodb.Row) bool {
	status, _ := row["status"].(string)
	return status != statusProcessing && status != statusFailed
}

// refreshRecent rebuilds the fleet's recent list: the newest homeRecent
// published rows, newest first, by current title. Like the search index it is
// derived where the catalog changes: New builds it, and after that it is
// rebuilt only under the row lock, by the steps that change what is public
// (publish's row half, unpublish, reindex). A failed scan keeps the previous
// list rather than blanking the home page.
func (s *Site) refreshRecent() {
	s.recentScans.Inc()
	list := make([]videoLink, 0, homeRecent)
	// Rows that are not public can crowd published ones out of a window of
	// homeRecent: widen it until it holds enough or the table runs out.
	for n := homeRecent; ; n *= 2 {
		rows, err := s.db.ScanLast("videos", n)
		if err != nil {
			log.Printf("web: rebuilding the recent list (keeping the previous one): %v", err)
			return
		}
		list = list[:0]
		for _, row := range rows {
			if len(list) < homeRecent && published(row) {
				list = append(list, videoLinkOf(row))
			}
		}
		if len(list) == homeRecent || len(rows) < n {
			break
		}
	}
	s.state.recent.Store(&list)
}

// recentVideos returns the home page's recent-uploads list: one atomic load.
// Callers must not mutate the returned slice.
func (s *Site) recentVideos() []videoLink {
	if list := s.state.recent.Load(); list != nil {
		return *list
	}
	return nil // New's initial scan failed and nothing has changed since
}

// userName resolves a user id to its username through the fleet's map.
// Usernames never change and users are never deleted, so an entry, once
// written, never goes stale. Lookup failures (missing user, malformed row)
// return fallback and are not cached.
func (s *Site) userName(id int64, fallback string) string {
	if name, ok := s.state.usernames.Load(id); ok {
		s.usernameHits.Inc()
		return name.(string)
	}
	s.usernameMisses.Inc()
	u, err := s.db.Get("users", id)
	if err != nil {
		return fallback
	}
	name := rowString(u, "username")
	if name == "" {
		return fallback
	}
	s.state.usernames.Store(id, name)
	return name
}
