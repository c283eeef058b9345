package web

import (
	"io"
	"strings"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/stream"
	"videocloud/internal/video"
)

// multiQualitySite builds a site with a 360p rendition beside the 720p
// target.
func multiQualitySite(t *testing.T) *Site {
	t.Helper()
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	site, err := New(Config{
		Store:  mount,
		Farm:   video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target: video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000},
		Renditions: []video.Spec{
			{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

func TestRenditionsProducedAndSelectable(t *testing.T) {
	site := multiQualitySite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("alice", "pw")
	watch := b.upload("Multi quality", "both sizes", 20, 1)
	id := strings.TrimPrefix(watch, "/watch/")

	p := &stream.Player{HTTP: b.c}
	fetchSpec := func(url string) video.Spec {
		t.Helper()
		size, err := p.Probe(url)
		if err != nil {
			t.Fatalf("probe %s: %v", url, err)
		}
		data, err := p.FetchRange(url, 0, size-1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := video.Probe(data)
		if err != nil {
			t.Fatal(err)
		}
		return info.Spec
	}
	// Default stream is the 720p target.
	if spec := fetchSpec(b.srv.URL + "/stream/" + id); spec.Res != video.R720p {
		t.Fatalf("default stream is %v", spec.Res)
	}
	// Explicit qualities.
	if spec := fetchSpec(b.srv.URL + "/stream/" + id + "?quality=720p"); spec.Res != video.R720p {
		t.Fatalf("720p stream is %v", spec.Res)
	}
	if spec := fetchSpec(b.srv.URL + "/stream/" + id + "?quality=360p"); spec.Res != video.R360p {
		t.Fatalf("360p stream is %v", spec.Res)
	}
	// Unknown quality 404s.
	resp, err := b.c.Get(b.srv.URL + "/stream/" + id + "?quality=1080p")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown quality status %d", resp.StatusCode)
	}
	// Watch page advertises both qualities.
	_, body := b.get(watch)
	if !strings.Contains(body, "quality=720p") || !strings.Contains(body, "quality=360p") {
		t.Fatalf("watch page missing quality links")
	}
}

func TestRenditionCadenceValidation(t *testing.T) {
	cluster := hdfs.NewCluster(2, 256*1024)
	mount, _ := fusebridge.New(cluster.Client(""), "/site", 1)
	_, err := New(Config{
		Store: mount,
		Farm:  video.Farm{Nodes: []string{"dn0"}},
		Renditions: []video.Spec{
			{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 4, BitrateBps: 64_000},
		},
	})
	if err == nil {
		t.Fatal("mismatched GOP cadence accepted")
	}
}

func TestRelatedVideosOnWatchPage(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("alice", "pw")
	w1 := b.upload("Dance practice one", "pop dance choreography studio", 10, 1)
	b.upload("Dance practice two", "pop dance choreography stage", 10, 2)
	b.upload("Cooking pasta", "recipe kitchen italian", 10, 3)
	_, body := b.get(w1)
	if !strings.Contains(body, "Related videos") {
		t.Fatalf("no related section:\n%s", body)
	}
	if !strings.Contains(body, "Dance practice two") {
		t.Fatal("thematically related video not listed")
	}
	// The related section must not link to the page itself.
	relSection := body[strings.Index(body, "Related videos"):]
	if strings.Contains(relSection, `href="`+w1+`"`) {
		t.Fatal("watch page lists itself as related")
	}
}
