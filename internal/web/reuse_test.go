package web

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"

	"videocloud/internal/video"
)

// TestReusedBuffersKeepPublishedBytes: title A is uploaded through /upload
// and published, and its upload body and farm outputs go back to their free
// lists; title B is uploaded next, read into A's body and converted into A's
// outputs. A's stored segment objects and its /stream must then still be,
// byte for byte, what a reference conversion of A's source makes, and B's
// what one of B's makes: nothing stored keeps a view of a buffer given back.
// Under -race (make chaosshort runs it so) every buffer is poisoned as it is
// given back, so a view kept past its release reads a pattern no payload
// has.
func TestReusedBuffersKeepPublishedBytes(t *testing.T) {
	site, _ := layoutSite(t)
	b := newBrowser(t, site)
	if r, _ := b.post("/login", map[string][]string{"username": {"admin"}, "password": {"admin"}}); r.StatusCode != http.StatusOK {
		t.Fatal("admin login failed")
	}
	const seconds = 30
	publish := func(title string, seed uint64) (int64, map[string][]byte) {
		src, err := video.Generate(layoutSource, seconds, seed)
		if err != nil {
			t.Fatal(err)
		}
		body := uploadForm(
			[2]string{`Content-Disposition: form-data; name="title"`, title},
			[2]string{`Content-Disposition: form-data; name="video"; filename="clip.vcf"`, string(src)},
		)
		resp, err := b.c.Post(b.srv.URL+"/upload", uploadFormType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var id int64
		if _, err := fmt.Sscanf(resp.Request.URL.Path, "/watch/%d", &id); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("upload of %s: status %d at %s", title, resp.StatusCode, resp.Request.URL.Path)
		}
		site.DrainTranscodes()
		res, err := video.Farm{Nodes: layoutNodes}.ConvertMulti(src, layoutTarget, layout360p)
		if err != nil {
			t.Fatal(err)
		}
		return id, map[string][]byte{"720p": res[0].Output, "360p": res[1].Output}
	}
	check := func(name string, id int64, want map[string][]byte) {
		t.Helper()
		for label, whole := range want {
			segs, err := video.Segments(whole, site.segSeconds)
			if err != nil {
				t.Fatal(err)
			}
			for k, seg := range segs {
				obj, err := site.store.ReadFileCtx(context.Background(), segmentPath(id, label, k))
				if err != nil || !bytes.Equal(obj, seg) {
					t.Fatalf("%s: stored segment %s/%d differs from the reference (err %v)", name, label, k, err)
				}
			}
			resp, got := b.get(fmt.Sprintf("/stream/%d?quality=%s", id, label))
			if resp.StatusCode != http.StatusOK || got != string(whole) {
				t.Fatalf("%s: /stream of %s answers %d with %d bytes, not the %d of the reference", name, label, resp.StatusCode, len(got), len(whole))
			}
		}
	}
	idA, wantA := publish("title A", 101)
	check("A before B", idA, wantA)
	idB, wantB := publish("title B", 202)
	check("A after B", idA, wantA)
	check("B", idB, wantB)
}
