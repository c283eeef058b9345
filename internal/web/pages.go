package web

import (
	"strconv"
	"sync"
)

// The pages reproduce the structure of Figures 17-23: a shared shell with
// navigation, then per-page bodies. CSS3/jQuery niceties of the original
// reduce to a stylesheet block; the information architecture — search box
// front and centre, register/login/upload/player/admin pages — is the
// paper's.
//
// Each page is a plain function appending static text and escaped values to a
// pooled buffer. The text is that of the html/template the site used to
// execute per request, which survives in pages_test.go as the oracle: every
// page must stay byte-identical to it, so the escaper chosen at each
// interpolation here (text, query, int) is the one html/template's contextual
// analysis chose there.

// view is the context for every page.
type view struct {
	Page      string
	Title     string
	User      string
	Admin     bool
	Error     string
	Query     string
	Hits      []videoView
	Recent    []videoLink
	Video     videoView
	Owner     bool
	Qualities []string
	Related   []videoLink
	Comments  []commentView
	Users     []userView
}

type videoView struct {
	ID          int64
	Title       string
	Description string
	Uploader    string
	Duration    int64
	Views       int64
	Reports     int64
	// Status is the conversion lifecycle state ("processing", "ready",
	// "failed"); empty for rows predating the status column, which render
	// as ready.
	Status string
}

// videoLink is all a list of titles (recent uploads, related videos) renders.
type videoLink struct {
	ID    int64
	Title string
}

type commentView struct {
	User string
	Text string
}

type userView struct {
	Name    string
	Blocked bool
}

// page is the buffer one response body is appended to.
type page struct{ b []byte }

var pagePool = sync.Pool{New: func() any { return &page{b: make([]byte, 0, 4<<10)} }}

// maxPooledPage keeps one huge admin listing from pinning its buffer.
const maxPooledPage = 64 << 10

func (p *page) raw(s string) { p.b = append(p.b, s...) }

func (p *page) int(n int64) { p.b = strconv.AppendInt(p.b, n, 10) }

// text appends s escaped for HTML text, RCDATA and quoted attribute values —
// html/template's replacement table. All seven are ASCII, so a byte loop
// leaves multi-byte and malformed sequences as they are, as it does.
func (p *page) text(s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case 0:
			esc = "\uFFFD"
		case '"':
			esc = "&#34;"
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '+':
			esc = "&#43;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		p.b = append(p.b, s[last:i]...)
		p.b = append(p.b, esc...)
		last = i + 1
	}
	p.b = append(p.b, s[last:]...)
}

// query appends s as a value in the query of a URL in a quoted attribute:
// every byte outside RFC 3986's unreserved set becomes %xx, which leaves
// nothing for the attribute escaper to do.
func (p *page) query(s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
			p.b = append(p.b, c)
		default:
			p.b = append(p.b, '%', hexDigits[c>>4], hexDigits[c&15])
		}
	}
}

// watchLink appends the anchor every listing shows for a video.
func (p *page) watchLink(id int64, title string) {
	p.raw(`<a href="/watch/`)
	p.int(id)
	p.raw(`">`)
	p.text(title)
	p.raw(`</a>`)
}

func (p *page) hit(id int64, title string) {
	p.raw(`<div class="hit">`)
	p.watchLink(id, title)
	p.raw(`</div>`)
}

func (p *page) shell(v *view) {
	p.raw(`<!DOCTYPE html>
<html><head><title>`)
	p.text(v.Title)
	p.raw(` — VideoCloud</title>
<style>
body{font-family:sans-serif;margin:2em auto;max-width:52em}
nav a{margin-right:1em} .error{color:#b00} .hit{margin:.6em 0}
.player{background:#000;color:#fff;padding:1em;width:640px;height:360px}
.timebar{background:#444;height:6px;width:640px} .social a{margin-right:.6em}
</style></head>
<body>
<nav>
<a href="/">Search</a><a href="/upload">Upload</a><a href="/my">My videos</a>
`)
	if v.User != "" {
		p.raw(`<span>signed in as <b>`)
		p.text(v.User)
		p.raw(`</b></span>
<form method="post" action="/logout" style="display:inline"><button>Log out</button></form>
`)
	} else {
		p.raw(`<a href="/register">Register</a><a href="/login">Log in</a>`)
	}
	p.raw("\n")
	if v.Admin {
		p.raw(`<a href="/admin">Admin</a>`)
	}
	p.raw("\n</nav>\n")
	if v.Error != "" {
		p.raw(`<p class="error">`)
		p.text(v.Error)
		p.raw(`</p>`)
	}
	p.raw("\n\n")
	switch v.Page {
	case "home":
		p.home(v)
	case "register":
		p.register()
	case "login":
		p.login()
	case "upload":
		p.upload()
	case "watch":
		p.watch(v)
	case "my":
		p.my(v)
	case "admin":
		p.admin(v)
	}
	p.raw("\n\n</body></html>")
}

// home is the search page (Figures 17-18): the box, the hits for a query, and
// the recent uploads when there is none.
func (p *page) home(v *view) {
	p.raw(`
<h1>VideoCloud</h1>
<form action="/search" method="get">
<input name="q" size="50" value="`)
	p.text(v.Query)
	p.raw(`" placeholder="search videos">
<button>Search</button></form>
`)
	if len(v.Hits) > 0 {
		p.raw(`<h2>Results for “`)
		p.text(v.Query)
		p.raw("”</h2>\n")
		for i := range v.Hits {
			h := &v.Hits[i]
			p.raw(`<div class="hit">`)
			p.watchLink(h.ID, h.Title)
			p.raw("\n — ")
			p.text(h.Description)
			p.raw(` <small>(`)
			p.int(h.Views)
			p.raw(` views)</small></div>`)
		}
		p.raw("\n")
	} else if v.Query != "" {
		p.raw(`<p>No videos matched.</p>`)
	}
	p.raw("\n")
	if len(v.Recent) > 0 {
		p.raw("<h2>Recent uploads</h2>\n")
		for _, l := range v.Recent {
			p.hit(l.ID, l.Title)
		}
	}
	p.raw("\n\n")
}

func (p *page) register() {
	p.raw(`
<h1>Register</h1>
<form method="post" action="/register">
<p><input name="username" placeholder="account"></p>
<p><input name="password" type="password" placeholder="password"></p>
<p><input name="email" placeholder="email"></p>
<button>Create account</button></form>
<p>A verification link will be sent to your mailbox.</p>

`)
}

func (p *page) login() {
	p.raw(`
<h1>Log in</h1>
<form method="post" action="/login">
<p><input name="username" placeholder="account"></p>
<p><input name="password" type="password" placeholder="password"></p>
<button>Log in</button></form>

`)
}

func (p *page) upload() {
	p.raw(`
<h1>Upload a video</h1>
<form method="post" action="/upload" enctype="multipart/form-data">
<p><input name="title" size="50" placeholder="title"></p>
<p><textarea name="description" cols="50" rows="3" placeholder="description"></textarea></p>
<p><input type="file" name="video"></p>
<button>Upload</button></form>
<p>Files are converted to H.264 in parallel across the cloud and stored in HDFS.</p>

`)
}

// watch is the player page (Figure 23).
func (p *page) watch(v *view) {
	vid := &v.Video
	p.raw("\n<h1>")
	p.text(vid.Title)
	p.raw("</h1>\n")
	switch vid.Status {
	case "processing":
		p.raw(`
<div class="player processing" id="flowplayer">
  ⏳ converting on the farm — refresh once the video is ready
</div>
`)
	case "failed":
		p.raw(`
<div class="player failed" id="flowplayer">
  ✖ conversion failed — this upload cannot be played
</div>
`)
	default:
		p.raw(`
<div class="player" id="flowplayer" data-src="/stream/`)
		p.int(vid.ID)
		p.raw(`">
  ▶ streaming /stream/`)
		p.int(vid.ID)
		p.raw(` (`)
		p.int(vid.Duration)
		p.raw(`s, 720p H.264)
  <div class="timebar"></div>
</div>
`)
	}
	p.raw("\n<p>")
	p.text(vid.Description)
	p.raw("</p>\n<p><small>uploaded by ")
	p.text(vid.Uploader)
	p.raw(` · `)
	p.int(vid.Views)
	p.raw(" views</small>\n")
	if len(v.Qualities) > 1 {
		p.raw(" · quality:\n")
		for _, q := range v.Qualities {
			p.raw(`<a href="/stream/`)
			p.int(vid.ID)
			p.raw(`?quality=`)
			p.query(q)
			p.raw(`">`)
			p.text(q)
			p.raw(`</a> `)
		}
	}
	p.raw("</p>\n")
	if len(v.Related) > 0 {
		p.raw("<h2>Related videos</h2>\n")
		for _, l := range v.Related {
			p.hit(l.ID, l.Title)
		}
	}
	p.raw(`
<div class="social">
<a href="https://facebook.com/share?u=/watch/`)
	p.int(vid.ID)
	p.raw(`">Facebook</a>
<a href="https://plurk.com/share?u=/watch/`)
	p.int(vid.ID)
	p.raw(`">Plurk</a>
<a href="https://twitter.com/share?u=/watch/`)
	p.int(vid.ID)
	p.raw(`">Twitter</a>
</div>
`)
	if v.Owner {
		p.raw(`
<form method="post" action="/watch/`)
		p.int(vid.ID)
		p.raw(`/edit">
<input name="title" value="`)
		p.text(vid.Title)
		p.raw(`"><input name="description" value="`)
		p.text(vid.Description)
		p.raw(`">
<button>Save</button></form>
<form method="post" action="/watch/`)
		p.int(vid.ID)
		p.raw(`/delete"><button>Delete video</button></form>
`)
	}
	p.raw(`
<form method="post" action="/watch/`)
	p.int(vid.ID)
	p.raw(`/report"><button>Report this film</button></form>
<h2>Comments</h2>
`)
	for _, c := range v.Comments {
		p.raw(`<p><b>`)
		p.text(c.User)
		p.raw(`</b>: `)
		p.text(c.Text)
		p.raw(`</p>`)
	}
	p.raw("\n")
	if v.User != "" {
		p.raw(`<form method="post" action="/watch/`)
		p.int(vid.ID)
		p.raw(`/comment">
<input name="text" size="60" placeholder="leave a message"><button>Post</button></form>`)
	}
	p.raw("\n\n")
}

func (p *page) my(v *view) {
	p.raw("\n<h1>My videos</h1>\n")
	for i := range v.Hits {
		p.hit(v.Hits[i].ID, v.Hits[i].Title)
	}
	if len(v.Hits) == 0 {
		p.raw(`<p>No uploads yet.</p>`)
	}
	p.raw("\n\n")
}

func (p *page) admin(v *view) {
	p.raw(`
<h1>Administration</h1>
<h2>Users</h2>
`)
	for _, u := range v.Users {
		blocked, next, verb := "", "true", "Block"
		if u.Blocked {
			blocked, next, verb = "(blocked)", "false", "Unblock"
		}
		p.raw(`<p>`)
		p.text(u.Name)
		p.raw(` `)
		p.raw(blocked)
		p.raw(`
<form method="post" action="/admin/block" style="display:inline">
<input type="hidden" name="user" value="`)
		p.text(u.Name)
		p.raw(`">
<input type="hidden" name="blocked" value="`)
		p.raw(next)
		p.raw(`">
<button>`)
		p.raw(verb)
		p.raw(`</button></form></p>`)
	}
	p.raw("\n<h2>Reported videos</h2>\n")
	for i := range v.Hits {
		h := &v.Hits[i]
		p.raw(`<p>`)
		p.watchLink(h.ID, h.Title)
		p.raw(` — `)
		p.int(h.Reports)
		p.raw(` reports
<form method="post" action="/watch/`)
		p.int(h.ID)
		p.raw(`/delete" style="display:inline"><button>Remove</button></form></p>
`)
	}
	if len(v.Hits) == 0 {
		p.raw(`<p>No reports.</p>`)
	}
	p.raw("\n")
}
