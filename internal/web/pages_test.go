package web

import (
	"bytes"
	"html/template"
	"testing"
)

// oracleTpl is the html/template the site executed on every page request
// before the writers in pages.go replaced it, text unchanged. It is the
// reference the writers are compared against byte for byte: a mismatch is a
// writer bug, never a reason to edit this template.
var oracleTpl = template.Must(template.New("shell").Parse(`
{{define "shell"}}<!DOCTYPE html>
<html><head><title>{{.Title}} — VideoCloud</title>
<style>
body{font-family:sans-serif;margin:2em auto;max-width:52em}
nav a{margin-right:1em} .error{color:#b00} .hit{margin:.6em 0}
.player{background:#000;color:#fff;padding:1em;width:640px;height:360px}
.timebar{background:#444;height:6px;width:640px} .social a{margin-right:.6em}
</style></head>
<body>
<nav>
<a href="/">Search</a><a href="/upload">Upload</a><a href="/my">My videos</a>
{{if .User}}<span>signed in as <b>{{.User}}</b></span>
<form method="post" action="/logout" style="display:inline"><button>Log out</button></form>
{{else}}<a href="/register">Register</a><a href="/login">Log in</a>{{end}}
{{if .Admin}}<a href="/admin">Admin</a>{{end}}
</nav>
{{if .Error}}<p class="error">{{.Error}}</p>{{end}}
{{template "body" .}}
</body></html>{{end}}

{{define "home"}}{{template "shell" .}}{{end}}
{{define "body"}}
{{if eq .Page "home"}}
<h1>VideoCloud</h1>
<form action="/search" method="get">
<input name="q" size="50" value="{{.Query}}" placeholder="search videos">
<button>Search</button></form>
{{if .Hits}}<h2>Results for “{{.Query}}”</h2>
{{range .Hits}}<div class="hit"><a href="/watch/{{.ID}}">{{.Title}}</a>
 — {{.Description}} <small>({{.Views}} views)</small></div>{{end}}
{{else if .Query}}<p>No videos matched.</p>{{end}}
{{if .Recent}}<h2>Recent uploads</h2>
{{range .Recent}}<div class="hit"><a href="/watch/{{.ID}}">{{.Title}}</a></div>{{end}}{{end}}

{{else if eq .Page "register"}}
<h1>Register</h1>
<form method="post" action="/register">
<p><input name="username" placeholder="account"></p>
<p><input name="password" type="password" placeholder="password"></p>
<p><input name="email" placeholder="email"></p>
<button>Create account</button></form>
<p>A verification link will be sent to your mailbox.</p>

{{else if eq .Page "login"}}
<h1>Log in</h1>
<form method="post" action="/login">
<p><input name="username" placeholder="account"></p>
<p><input name="password" type="password" placeholder="password"></p>
<button>Log in</button></form>

{{else if eq .Page "upload"}}
<h1>Upload a video</h1>
<form method="post" action="/upload" enctype="multipart/form-data">
<p><input name="title" size="50" placeholder="title"></p>
<p><textarea name="description" cols="50" rows="3" placeholder="description"></textarea></p>
<p><input type="file" name="video"></p>
<button>Upload</button></form>
<p>Files are converted to H.264 in parallel across the cloud and stored in HDFS.</p>

{{else if eq .Page "watch"}}
<h1>{{.Video.Title}}</h1>
{{if eq .Video.Status "processing"}}
<div class="player processing" id="flowplayer">
  ⏳ converting on the farm — refresh once the video is ready
</div>
{{else if eq .Video.Status "failed"}}
<div class="player failed" id="flowplayer">
  ✖ conversion failed — this upload cannot be played
</div>
{{else}}
<div class="player" id="flowplayer" data-src="/stream/{{.Video.ID}}">
  ▶ streaming /stream/{{.Video.ID}} ({{.Video.Duration}}s, 720p H.264)
  <div class="timebar"></div>
</div>
{{end}}
<p>{{.Video.Description}}</p>
<p><small>uploaded by {{.Video.Uploader}} · {{.Video.Views}} views</small>
{{if gt (len .Qualities) 1}} · quality:
{{range .Qualities}}<a href="/stream/{{$.Video.ID}}?quality={{.}}">{{.}}</a> {{end}}{{end}}</p>
{{if .Related}}<h2>Related videos</h2>
{{range .Related}}<div class="hit"><a href="/watch/{{.ID}}">{{.Title}}</a></div>{{end}}{{end}}
<div class="social">
<a href="https://facebook.com/share?u=/watch/{{.Video.ID}}">Facebook</a>
<a href="https://plurk.com/share?u=/watch/{{.Video.ID}}">Plurk</a>
<a href="https://twitter.com/share?u=/watch/{{.Video.ID}}">Twitter</a>
</div>
{{if .Owner}}
<form method="post" action="/watch/{{.Video.ID}}/edit">
<input name="title" value="{{.Video.Title}}"><input name="description" value="{{.Video.Description}}">
<button>Save</button></form>
<form method="post" action="/watch/{{.Video.ID}}/delete"><button>Delete video</button></form>
{{end}}
<form method="post" action="/watch/{{.Video.ID}}/report"><button>Report this film</button></form>
<h2>Comments</h2>
{{range .Comments}}<p><b>{{.User}}</b>: {{.Text}}</p>{{end}}
{{if .User}}<form method="post" action="/watch/{{.Video.ID}}/comment">
<input name="text" size="60" placeholder="leave a message"><button>Post</button></form>{{end}}

{{else if eq .Page "my"}}
<h1>My videos</h1>
{{range .Hits}}<div class="hit"><a href="/watch/{{.ID}}">{{.Title}}</a></div>{{else}}<p>No uploads yet.</p>{{end}}

{{else if eq .Page "admin"}}
<h1>Administration</h1>
<h2>Users</h2>
{{range .Users}}<p>{{.Name}} {{if .Blocked}}(blocked){{end}}
<form method="post" action="/admin/block" style="display:inline">
<input type="hidden" name="user" value="{{.Name}}">
<input type="hidden" name="blocked" value="{{if .Blocked}}false{{else}}true{{end}}">
<button>{{if .Blocked}}Unblock{{else}}Block{{end}}</button></form></p>{{end}}
<h2>Reported videos</h2>
{{range .Hits}}<p><a href="/watch/{{.ID}}">{{.Title}}</a> — {{.Reports}} reports
<form method="post" action="/watch/{{.ID}}/delete" style="display:inline"><button>Remove</button></form></p>
{{else}}<p>No reports.</p>{{end}}
{{end}}
{{end}}
`))

// pageNames are the seven pages plus one no template branch names, which
// renders the bare shell.
var pageNames = []string{"home", "register", "login", "upload", "watch", "my", "admin", "nowhere"}

// comparePage renders v with the writers and with the oracle and fails on the
// first differing byte.
func comparePage(t testing.TB, v view) {
	t.Helper()
	var want bytes.Buffer
	if err := oracleTpl.ExecuteTemplate(&want, "shell", v); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	p := &page{}
	p.shell(&v)
	got, exp := p.b, want.Bytes()
	if bytes.Equal(got, exp) {
		return
	}
	i := 0
	for i < len(got) && i < len(exp) && got[i] == exp[i] {
		i++
	}
	from := max(i-60, 0)
	t.Fatalf("page %q differs from the template at byte %d (writer %d bytes, oracle %d)\nwriter: …%q\noracle: …%q\nview: %+v",
		v.Page, i, len(got), len(exp), got[from:min(i+60, len(got))], exp[from:min(i+60, len(exp))], v)
}

// sampleViews returns views covering every branch the pages take — anonymous,
// signed in, admin, owner; the three conversion states and the legacy empty
// one; empty, single and multi-entry lists; an error banner — with s planted
// in every string field.
func sampleViews(s string) []view {
	video := func(status string) videoView {
		return videoView{ID: 7, Title: s, Description: "about " + s, Uploader: s, Duration: 32, Views: 1234, Reports: 2, Status: status}
	}
	hits := []videoView{video("ready"), {ID: 8, Title: "second " + s, Description: s, Views: 0, Reports: 11}, {ID: 1 << 40, Title: "(untitled)"}}
	links := []videoLink{{ID: 3, Title: s}, {ID: 4, Title: s + s}}
	comments := []commentView{{User: s, Text: s}, {User: "anonymous", Text: "plain " + s}}
	users := []userView{{Name: s}, {Name: "blocked " + s, Blocked: true}}
	return []view{
		{},
		{Title: s},
		{Title: s, Error: s},
		{Title: s, Query: s},
		{Title: s, Query: s, Hits: hits[:1]},
		{Title: s, Query: s, Hits: hits, Recent: links, User: s},
		{Title: s, Recent: links[:1]},
		{Title: s, Recent: links, User: s, Admin: true},
		{Title: s, Video: video("processing")},
		{Title: s, Video: video("failed"), User: s},
		{Title: s, Video: video("ready"), Qualities: []string{s}},
		{Title: s, Video: video(""), Qualities: []string{"720p", s}, Related: links[:1], Comments: comments[:1]},
		{Title: s, Video: video("ready"), Qualities: []string{"720p", "360p", s}, Related: links, Comments: comments,
			User: s, Owner: true, Error: s},
		{Title: s, Video: video(s), Qualities: []string{""}, User: s, Admin: true, Owner: true},
		{Title: s, Hits: hits[1:], Users: users[:1], User: s, Admin: true},
		{Title: s, Hits: hits, Users: users, User: s, Admin: true, Error: s},
	}
}

// hostileStrings try to break out of every context a value lands in: element
// text, the RCDATA title, quoted attribute values, and the query of an href.
var hostileStrings = []string{
	"",
	"plain title",
	"<script>alert(1)</script>",
	`" onmouseover="alert(1)`,
	`' onfocus='alert(1)`,
	"rock & roll",
	"1+1=2",
	"nul\x00byte",
	"日本語 ünïcödé ⏳",
	"720p&hd #1 50%",
	"</title></textarea><!-- --><b>",
	"javascript:alert(1)",
	"%41%zz%",
	"line\nbreak\ttab\r",
	"bad utf8 \xff\xc3< \xe2\x82",
	"  ﷐￾",
	"{{.Title}}",
}

func TestPagesMatchTemplate(t *testing.T) {
	for _, s := range hostileStrings {
		for _, v := range sampleViews(s) {
			for _, name := range pageNames {
				v.Page = name
				comparePage(t, v)
			}
		}
	}
}

// FuzzPageMatchesTemplate fuzzes the string fields of one busy view of each
// page against the oracle (make fuzzshort runs it for ten seconds).
func FuzzPageMatchesTemplate(f *testing.F) {
	for i, s := range hostileStrings {
		f.Add(uint8(i), s, "about "+s, "360p")
	}
	f.Fuzz(func(t *testing.T, pick uint8, title, text, quality string) {
		v := view{
			Page: pageNames[int(pick)%len(pageNames)], Title: title, User: text, Error: text, Query: title,
			Admin: pick&8 != 0, Owner: pick&16 != 0,
			Hits:      []videoView{{ID: 1, Title: title, Description: text, Views: int64(pick)}},
			Recent:    []videoLink{{ID: 2, Title: title}},
			Video:     videoView{ID: int64(pick), Title: title, Description: text, Uploader: quality, Status: []string{"", "processing", "failed", text}[pick>>6]},
			Qualities: []string{quality, title},
			Related:   []videoLink{{ID: 3, Title: text}},
			Comments:  []commentView{{User: title, Text: text}},
			Users:     []userView{{Name: title, Blocked: pick&32 != 0}},
		}
		comparePage(t, v)
	})
}
