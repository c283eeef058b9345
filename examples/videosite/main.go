// Video site walkthrough (paper Figures 17-23): run the full stack, then
// act as a user against the real HTTP site — register, follow the emailed
// verification link, log in, upload a video, search for it, stream it with
// time-bar seeks — and finally live-migrate the web server VM and keep
// watching.
package main

import (
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"

	"bytes"

	"videocloud"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	vc, err := videocloud.New(videocloud.Config{})
	must(err)
	srv := httptest.NewServer(vc.Handler())
	defer srv.Close()
	jar, _ := cookiejar.New(nil)
	browser := &http.Client{Jar: jar}

	fmt.Println("== Figure 19: register ==")
	resp, err := browser.PostForm(srv.URL+"/register", url.Values{
		"username": {"alice"}, "password": {"hunter2"}, "email": {"alice@example.com"},
	})
	must(err)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	link := resp.Header.Get("X-Verification-Link")
	fmt.Printf("verification email link: %s\n", link)
	r2, err := browser.Get(srv.URL + link)
	must(err)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()

	fmt.Println("\n== Figure 20: log in ==")
	resp, err = browser.PostForm(srv.URL+"/login", url.Values{
		"username": {"alice"}, "password": {"hunter2"},
	})
	must(err)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Println("logged in as alice")

	fmt.Println("\n== Figure 22: upload (converted in parallel, stored in HDFS) ==")
	src := videocloud.MediaSpec{Codec: "mpeg4", Res: videocloud.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 250_000}
	media, err := videocloud.GenerateVideo(src, 120, 99)
	must(err)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("title", "Nobody dance cover")
	mw.WriteField("description", "my pop dance practice video")
	fw, _ := mw.CreateFormFile("video", "cover.avi")
	fw.Write(media)
	mw.Close()
	req, _ := http.NewRequest("POST", srv.URL+"/upload", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err = browser.Do(req)
	must(err)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	watchPath := resp.Request.URL.Path
	fmt.Printf("uploaded -> %s\n", watchPath)
	vc.Site().DrainTranscodes() // the POST returns at once; wait for the farm to publish

	fmt.Println("\n== Figure 18: search 'nobody' ==")
	resp, err = browser.Get(srv.URL + "/search?q=nobody")
	must(err)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "Nobody dance cover") {
		fmt.Println("search hit: Nobody dance cover")
	} else {
		log.Fatal("search missed the upload")
	}

	fmt.Println("\n== Figure 23: player with a draggable time bar ==")
	id := strings.TrimPrefix(watchPath, "/watch/")
	player := &videocloud.Player{HTTP: browser}
	rep, err := player.Play(srv.URL+"/stream/"+id, []float64{0.25, 0.8}, nil)
	must(err)
	fmt.Printf("streamed with 2 seeks: fetched %d KB of %d KB in %d range requests\n",
		rep.BytesFetched>>10, rep.Size>>10, rep.Requests)

	fmt.Println("\n== Figures 8-10: live-migrate the web VM while the user watches ==")
	recHost := ""
	for _, vm := range vc.Status().VMs {
		if strings.HasPrefix(vm.Name, "webserver") {
			recHost = vm.Host
		}
	}
	var dst string
	for _, h := range vc.Cloud().Hosts() {
		if h.Name != recHost {
			dst = h.Name
			break
		}
	}
	mrep, err := vc.MigrateWebVM(dst)
	must(err)
	fmt.Printf("migrated %s -> %s, downtime %v\n", mrep.Src, mrep.Dst, mrep.Downtime)
	if _, err := player.Play(srv.URL+"/stream/"+id, []float64{0.5}, nil); err != nil {
		log.Fatal("playback after migration failed: ", err)
	}
	fmt.Println("playback after migration: ok")
}
