package web

import (
	"log"

	"videocloud/internal/videodb"
)

// homeRecent is how many recent uploads the home page lists.
const homeRecent = 10

// relatedLimit is how many related titles a watch page lists.
const relatedLimit = 5

// Three things pages read would otherwise cost the store a read per request —
// the home page's recent-uploads list (a videodb scan per GET /), a watch
// page's related titles (a MoreLikeThis query and a row read per title) and
// the uploader-id → username map (a users lookup per rendered video). All
// three are fleet state: one copy however many frontends serve it.

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

// relatedLinks is one title's related list and the generation of the fleet's
// related map it was computed under.
type relatedLinks struct {
	gen   uint64
	links []videoLink
}

// relatedVideos returns the watch page's related titles for id: up to
// relatedLimit titles most like it in the search index, best first, each
// under its row's current title. The list is computed on the title's first
// watch and served from the fleet's map after that; an entry is served only
// under the generation it was computed in, so a fill that read the index or
// a row before a change is never served after it. Callers must not mutate
// the returned slice.
func (s *Site) relatedVideos(id int64) []videoLink {
	st := s.state
	st.relMu.Lock()
	gen := st.relGen
	e, ok := st.related[id]
	st.relMu.Unlock()
	if ok && e.gen == gen {
		return e.links
	}
	s.relatedFills.Inc()
	var links []videoLink
	for _, hit := range s.Index().MoreLikeThis(id, relatedLimit) {
		if rel, err := s.db.Get("videos", hit.Doc); err == nil {
			links = append(links, videoLinkOf(rel))
		}
	}
	st.relMu.Lock()
	st.related[id] = relatedLinks{gen: gen, links: links}
	st.relMu.Unlock()
	return links
}

// dropRelated retires every related list. It runs after each write that can
// change one — a title indexed, re-indexed or removed, a row's public title
// changed (publish's row half, reindex, unpublish), or the index replaced
// whole — so a list read before the write is never served after it.
func (st *fleetState) dropRelated() {
	st.relMu.Lock()
	st.relGen++
	clear(st.related)
	st.relMu.Unlock()
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
