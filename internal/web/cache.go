package web

import (
	"sync"

	"videocloud/internal/metrics"
)

// homeRecent is how many recent uploads the home page lists.
const homeRecent = 10

// hotCache is one replica's read-through cache. It holds exactly two things
// the hot path used to recompute per request: the home page's recent-uploads
// list (previously a full videodb scan per GET /) and the uploader-id →
// username map (previously an N+1 users lookup per rendered video).
//
// The recent list is fleet- and shard-aware: instead of a local boolean it
// is tagged with the fleetState.recentGen generation it was built at, so an
// invalidation on any replica (upload, edit, delete, block) is one atomic
// bump that stales every replica's copy at once. Rebuilds are single-flight:
// concurrent misses after an invalidation wait for one scan instead of each
// running their own — the thundering herd a viral upload used to trigger
// collapses to exactly one ScanLast per invalidation per replica.
//
// The list holds ids and titles, all the home page renders, so nothing in it
// goes stale between invalidations.
type hotCache struct {
	mu sync.Mutex
	// recent is valid when it is non-nil and recentGen matches the fleet
	// generation it was built at (scanRecent never returns nil).
	recent    []videoLink
	recentGen int64
	// filling marks an in-flight rebuild; fillDone is closed when it
	// lands. Waiters re-check the generation on wake (the fill they
	// waited on may itself already be stale).
	filling  bool
	fillDone chan struct{}

	usernames map[int64]string

	// Instruments, resolved once so a page takes no registry lock.
	recentHits, recentWaits, recentMisses, recentScans *metrics.Counter
	usernameHits, usernameMisses                       *metrics.Counter
}

func newHotCache(reg *metrics.Registry) hotCache {
	return hotCache{
		recentHits:     reg.Counter("cache_recent_hits"),
		recentWaits:    reg.Counter("cache_recent_waits"),
		recentMisses:   reg.Counter("cache_recent_misses"),
		recentScans:    reg.Counter("cache_recent_scans"),
		usernameHits:   reg.Counter("cache_username_hits"),
		usernameMisses: reg.Counter("cache_username_misses"),
	}
}

// recentVideos returns the home page's recent-uploads list, rebuilding at
// most once per invalidation generation regardless of how many requests miss
// concurrently. Callers must not mutate the returned slice.
func (s *Site) recentVideos() []videoLink {
	c := &s.cache
	gen := s.state.recentGen.Load()
	c.mu.Lock()
	for {
		if c.recent != nil && c.recentGen == gen {
			out := c.recent
			c.mu.Unlock()
			c.recentHits.Inc()
			return out
		}
		if !c.filling {
			break
		}
		// Another request is already rebuilding: wait for its result
		// rather than scanning again.
		done := c.fillDone
		c.mu.Unlock()
		c.recentWaits.Inc()
		<-done
		gen = s.state.recentGen.Load()
		c.mu.Lock()
	}
	c.filling = true
	c.fillDone = make(chan struct{})
	done := c.fillDone
	c.mu.Unlock()

	c.recentMisses.Inc()
	out := s.scanRecent()

	c.mu.Lock()
	c.recent, c.recentGen = out, gen
	c.filling = false
	c.mu.Unlock()
	close(done)
	return out
}

// scanRecent is the uncached rebuild: a bounded reverse scan returning only
// the newest homeRecent rows (videodb.ScanLast), not the full-table
// materialisation the pre-PR-7 path paid. It remains the correctness
// reference and the benchmark baseline; cache_recent_scans counts every
// execution so tests can assert single-flight behaviour.
func (s *Site) scanRecent() []videoLink {
	s.cache.recentScans.Inc()
	rows, _ := s.db.ScanLast("videos", homeRecent)
	out := make([]videoLink, 0, len(rows))
	for _, row := range rows {
		out = append(out, videoLinkOf(row))
	}
	return out
}

// invalidateRecent stales every fleet replica's cached recent list with one
// generation bump; each replica rebuilds lazily on its next home request.
func (s *Site) invalidateRecent() {
	s.state.recentGen.Add(1)
	s.reg.Counter("cache_recent_invalidations").Inc()
}

// userName resolves a user id to its username through the replica-local
// cache. Lookup failures (deleted user, malformed row) return fallback and
// are not cached.
func (s *Site) userName(id int64, fallback string) string {
	c := &s.cache
	c.mu.Lock()
	name, ok := c.usernames[id]
	c.mu.Unlock()
	if ok {
		c.usernameHits.Inc()
		return name
	}
	c.usernameMisses.Inc()
	u, err := s.db.Get("users", id)
	if err != nil {
		return fallback
	}
	name = rowString(u, "username")
	if name == "" {
		return fallback
	}
	c.mu.Lock()
	if c.usernames == nil {
		c.usernames = make(map[int64]string)
	}
	c.usernames[id] = name
	c.mu.Unlock()
	return name
}

// invalidateUser drops one username entry from every replica's cache (admin
// block path — moderation must be visible fleet-wide immediately).
func (s *Site) invalidateUser(id int64) {
	for _, r := range s.state.frontends() {
		r.cache.mu.Lock()
		delete(r.cache.usernames, id)
		r.cache.mu.Unlock()
	}
}
