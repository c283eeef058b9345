package web

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"videocloud/internal/search"
	"videocloud/internal/tenant"
)

// The watch page's related titles are fleet state (cache.go): filled on a
// title's first watch, dropped wherever the index or a public row changes.
// These tests hold every watch page to the computation it replaced.

// uncachedRelated is the related list as handleWatch computed it on every
// request before the list became fleet state, kept verbatim as the oracle.
func uncachedRelated(s *Site, id int64) []videoLink {
	var related []videoLink
	for _, hit := range s.Index().MoreLikeThis(id, 5) {
		if rel, err := s.db.Get("videos", hit.Doc); err == nil {
			related = append(related, videoLinkOf(rel))
		}
	}
	return related
}

// relatedOnPage returns the line of a watch page that lists its related
// titles, "" when it lists none.
func relatedOnPage(body string) string {
	_, listed, ok := strings.Cut(body, "<h2>Related videos</h2>\n")
	if !ok {
		return ""
	}
	listed, _, _ = strings.Cut(listed, "\n")
	return listed
}

// linksHTML renders links as a page lists them (titles here need no escaping).
func linksHTML(links []videoLink) string {
	var b strings.Builder
	for _, l := range links {
		fmt.Fprintf(&b, `<div class="hit"><a href="/watch/%d">%s</a></div>`, l.ID, l.Title)
	}
	return b.String()
}

var watchLinkRE = regexp.MustCompile(`<a href="/watch/(\d+)">([^<]*)</a>`)

// watchRelated GETs id's watch page from s and returns its related line.
func watchRelated(t *testing.T, s *Site, id int64) string {
	t.Helper()
	rec := do(s, "GET", fmt.Sprintf("/watch/%d", id), "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("watch %d: %d", id, rec.Code)
	}
	return relatedOnPage(rec.Body.String())
}

// TestRelatedMatchesUncached drives a seeded random mix of publishes, edits,
// deletes, failed conversions and index replacements through two replicas,
// and after every step watches every title on both: each page's related
// titles must equal the uncached computation, and the second replica's
// watches, which follow the first's with nothing changed between, must all be
// served from the fleet's map.
func TestRelatedMatchesUncached(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { relatedSoak(t, seed) })
	}
}

func relatedSoak(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	reg := tenant.NewRegistry()
	var failing atomic.Int32 // conversions still to fail
	sites, _ := lifecycleFleet(t, 2, reg, func(string, int) error {
		if failing.Load() > 0 && failing.Add(-1) >= 0 {
			return errors.New("injected conversion fault")
		}
		return nil
	})
	op := operatorToken(t, reg)
	words := []string{"harbour", "dawn", "storm", "city", "garden", "night"}
	word := func() string { return words[rng.Intn(len(words))] }
	serial := 0
	title := func() string { serial++; return fmt.Sprintf("t%d %s %s", serial, word(), word()) }
	var ids []int64 // every row: published or failed
	seen := map[string]int{}
	for step := 0; step < 40; step++ {
		site := sites[rng.Intn(2)]
		switch n := rng.Intn(10); {
		case n < 4 || len(ids) < 3: // upload; one in four conversions fails
			kind := "publish"
			if rng.Intn(4) == 0 {
				kind = "failed conversion"
				failing.Add(1)
			}
			id, err := site.ProcessUpload(context.Background(), site.AdminID(), title(), word(), testUploadMedia(t, 4, uint64(serial)))
			if err != nil {
				t.Fatal(err)
			}
			site.DrainTranscodes()
			failing.Store(0)
			ids = append(ids, id)
			seen[kind]++
		case n < 6:
			id := ids[rng.Intn(len(ids))]
			form := url.Values{"title": {title()}, "description": {word()}}
			if rec := do(site, "POST", fmt.Sprintf("/watch/%d/edit", id), op, form); rec.Code != http.StatusSeeOther {
				t.Fatalf("edit %d: %d", id, rec.Code)
			}
			seen["edit"]++
		case n < 8:
			i := rng.Intn(len(ids))
			if rec := do(site, "POST", fmt.Sprintf("/watch/%d/delete", ids[i]), op, nil); rec.Code != http.StatusSeeOther {
				t.Fatalf("delete %d: %d %s", ids[i], rec.Code, rec.Body)
			}
			ids = append(ids[:i], ids[i+1:]...)
			seen["delete"]++
		default:
			// A re-index whose corpus missed one title, as a snapshot taken
			// before its publish would, or none.
			docs := site.Documents()
			ix := search.NewIndex()
			skip := rng.Intn(len(docs) + 1)
			for i, d := range docs {
				if i != skip {
					ix.Add(d)
				}
			}
			site.ReplaceIndex(ix)
			seen["replace index"]++
		}
		first, second := sites[step%2], sites[1-step%2]
		for _, id := range ids {
			if got, want := watchRelated(t, first, id), linksHTML(uncachedRelated(first, id)); got != want {
				t.Fatalf("step %d: watch %d lists\n%s\nuncached\n%s", step, id, got, want)
			}
		}
		fills := second.relatedFills.Value()
		for _, id := range ids {
			if got, want := watchRelated(t, second, id), linksHTML(uncachedRelated(second, id)); got != want {
				t.Fatalf("step %d: the other replica's watch %d lists\n%s\nuncached\n%s", step, id, got, want)
			}
		}
		if n := second.relatedFills.Value() - fills; n != 0 {
			t.Fatalf("step %d: %d warm watches on the other replica recomputed their related titles", step, n)
		}
	}
	t.Log(seen)
}

// TestRelatedFillRacingEditNeverServed: watchers keep filling a title's
// related list while its neighbour is renamed. A fill that read the old name
// may land after the rename's invalidation; its generation is stale, so the
// first watch after the rename returns shows the new name.
func TestRelatedFillRacingEditNeverServed(t *testing.T) {
	reg := tenant.NewRegistry()
	sites, _ := lifecycleFleet(t, 2, reg, nil)
	op := operatorToken(t, reg)
	var a, b int64
	for i, id := range []*int64{&a, &b} {
		var err error
		if *id, err = sites[0].ProcessUpload(context.Background(), sites[0].AdminID(), fmt.Sprintf("harbour dawn %d", i), "", testUploadMedia(t, 4, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sites[0].DrainTranscodes()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() { close(stop); wg.Wait() }) // before the sites close
	for _, s := range sites {
		wg.Add(1)
		go func(s *Site) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.relatedVideos(a)
				}
			}
		}(s)
	}
	for round := 0; round < 200; round++ {
		name := fmt.Sprintf("harbour dawn b%d", round)
		if rec := do(sites[round%2], "POST", fmt.Sprintf("/watch/%d/edit", b), op, url.Values{"title": {name}}); rec.Code != http.StatusSeeOther {
			t.Fatalf("edit %d: %d", b, rec.Code)
		}
		if got, want := watchRelated(t, sites[1-round%2], a), linksHTML([]videoLink{{ID: b, Title: name}}); got != want {
			t.Fatalf("round %d: after the rename, watch %d lists\n%s\nwant\n%s", round, a, got, want)
		}
	}
}
