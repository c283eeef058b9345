package web

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// maxUploadBytes bounds multipart uploads (a DVD-quality hour).
const maxUploadBytes = 512 << 20

func (s *Site) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.instrument("home", s.handleHome))
	mux.HandleFunc("GET /search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("GET /suggest", s.instrument("suggest", s.handleSuggest))
	mux.HandleFunc("GET /register", s.instrument("register", s.handleRegisterPage))
	mux.HandleFunc("POST /register", s.instrument("register", s.handleRegister))
	mux.HandleFunc("GET /verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("GET /login", s.instrument("login", s.handleLoginPage))
	mux.HandleFunc("POST /login", s.instrument("login", s.handleLogin))
	mux.HandleFunc("POST /logout", s.instrument("logout", s.handleLogout))
	mux.HandleFunc("GET /upload", s.instrument("upload", s.handleUploadPage))
	mux.HandleFunc("POST /upload", s.instrument("upload", s.handleUpload))
	// The watch page and the media routes parse their own paths (delivery.go
	// mediaTail), and ServeHTTP calls them without the mux's matching
	// (mediaRoute). Routes are instrumented in the order status lists them.
	watch := s.instrument("watch", s.handleWatch)
	s.mediaRoutes = map[string]http.HandlerFunc{
		"stream":   s.instrument("stream", s.handleStream),
		"playlist": s.instrument("playlist", s.handlePlaylist),
		"segment":  s.instrument("segment", s.handleSegment),
		"watch":    watch,
	}
	for route, h := range s.mediaRoutes {
		mux.HandleFunc("GET /"+route+"/", h)
	}
	mux.HandleFunc("POST /watch/{id}/comment", s.instrument("comment", s.handleComment))
	mux.HandleFunc("POST /watch/{id}/report", s.instrument("report", s.handleReport))
	mux.HandleFunc("POST /watch/{id}/delete", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("POST /watch/{id}/edit", s.instrument("edit", s.handleEdit))
	mux.HandleFunc("GET /my", s.instrument("my", s.handleMy))
	mux.HandleFunc("GET /admin", s.instrument("admin", s.handleAdmin))
	mux.HandleFunc("POST /admin/block", s.instrument("block", s.handleBlock))
	return mux
}

// mediaRoute names the route the mux sends r to when r is a GET or HEAD of a
// clean path under /stream/, /playlist/, /segment/ or /watch/, and is "" for
// every other request. ServeHTTP calls such a route's handler directly:
// ServeMux spends three allocations matching a subtree pattern (a wildcard
// probe, then the probe again on the path with a slash appended, its
// trailing-slash redirect check), and those were the largest share of what
// a warm segment request allocated; a watch page paid one matching its {id}.
// The rest — another method, a path the mux cleans and redirects, a bare
// /segment — goes through the mux, to the same handlers or to the answer the
// mux gives.
func mediaRoute(r *http.Request) string {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return ""
	}
	p := r.URL.Path
	rest, ok := strings.CutPrefix(p, "/")
	if !ok || path.Clean(p) != p {
		return ""
	}
	route, _, ok := strings.Cut(rest, "/")
	if !ok {
		return ""
	}
	return route
}

// ---- safe row accessors ----
//
// videodb validates types on Insert/Update, but a row written by an older
// binary or a drifted schema (the real MySQL deployment's failure mode,
// reproducible via videodb.RawPut) can still carry the wrong type. An
// unchecked assertion would panic the handler goroutine; these log once per
// access and fall back to the zero value so the page renders a placeholder
// or a clean 500 instead.

func logMalformed(id any, col string, v any, want string) {
	log.Printf("web: malformed row id=%v: column %q holds %T, want %s", id, col, v, want)
}

func rowString(row videodb.Row, col string) string {
	v, ok := row[col].(string)
	if !ok {
		logMalformed(row["id"], col, row[col], "string")
	}
	return v
}

func rowInt(row videodb.Row, col string) int64 {
	v, ok := row[col].(int64)
	if !ok {
		logMalformed(row["id"], col, row[col], "int64")
	}
	return v
}

func rowBool(row videodb.Row, col string) bool {
	v, ok := row[col].(bool)
	if !ok {
		logMalformed(row["id"], col, row[col], "bool")
	}
	return v
}

// A projection is some columns of a title's row, read with videodb's
// Project: vals[i] holds cols[i], and cols[0] is "id". Its accessors are the
// tolerant reads rowString and rowInt are.
type projection struct {
	cols []string
	vals []any
}

func (p projection) str(i int) string {
	v, ok := p.vals[i].(string)
	if !ok {
		logMalformed(p.vals[0], p.cols[i], p.vals[i], "string")
	}
	return v
}

func (p projection) int(i int) int64 {
	v, ok := p.vals[i].(int64)
	if !ok {
		logMalformed(p.vals[0], p.cols[i], p.vals[i], "int64")
	}
	return v
}

// project picks cols out of a row already read whole.
func project(row videodb.Row, cols []string) projection {
	p := projection{cols: cols, vals: make([]any, len(cols))}
	for i, col := range cols {
		p.vals[i] = row[col]
	}
	return p
}

// viewCols are the columns a title's pages show, indexed by the vc
// constants: a watch page reads them all, a listing all but renditions.
var viewCols = []string{"id", "status", "title", "description", "uploader_id", "duration_seconds", "views", "reports", "renditions"}

const (
	vcID = iota
	vcStatus
	vcTitle
	vcDescription
	vcUploader
	vcDuration
	vcViews
	vcReports
	vcRenditions
)

// render writes one page: the body is built whole in a pooled buffer, so the
// response carries its length and nothing is sent before the page exists.
func (s *Site) render(w http.ResponseWriter, r *http.Request, v view) {
	if u := s.currentUser(r); u != nil {
		v.User = rowString(u, "username")
		v.Admin = rowBool(u, "admin")
	}
	if v.Title == "" {
		v.Title = v.Page
	}
	p := pagePool.Get().(*page)
	p.b = p.b[:0]
	p.shell(&v)
	// One array backs both values (stream.setMediaHeaders' form), under the
	// keys' canonical spelling.
	h := w.Header()
	hv := new([2]string)
	hv[0], hv[1] = "text/html; charset=utf-8", strconv.Itoa(len(p.b))
	h["Content-Type"] = hv[0:1:1]
	h["Content-Length"] = hv[1:2:2]
	w.Write(p.b)
	if cap(p.b) <= maxPooledPage {
		pagePool.Put(p)
	}
}

// listedTitle is a title as every listing shows it.
func listedTitle(title string) string {
	if title == "" {
		return "(untitled)"
	}
	return title
}

func videoLinkOf(row videodb.Row) videoLink {
	return videoLink{ID: rowInt(row, "id"), Title: listedTitle(rowString(row, "title"))}
}

// videoView reads a title's viewCols.
func (s *Site) videoView(p projection) videoView {
	// Tolerant read: rows from older binaries have no status column and
	// render as ready.
	status, _ := p.vals[vcStatus].(string)
	return videoView{
		Status:      status,
		ID:          p.int(vcID),
		Title:       listedTitle(p.str(vcTitle)),
		Description: p.str(vcDescription),
		Uploader:    s.userName(p.int(vcUploader), "unknown"),
		Duration:    p.int(vcDuration),
		Views:       p.int(vcViews),
		Reports:     p.int(vcReports),
	}
}

// ---- home & search (Figures 17-18) ----

func (s *Site) handleHome(w http.ResponseWriter, r *http.Request) {
	v := view{Page: "home", Title: "Search"}
	// Most recent first, capped at 10: the fleet's list, rebuilt where the
	// catalog changes rather than scanned per request.
	v.Recent = s.recentVideos()
	s.render(w, r, v)
}

// handleSearch serves /search?q=... from the inverted index.
func (s *Site) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.FormValue("q")
	v := view{Page: "home", Title: "Search", Query: q}
	if q != "" {
		s.searches.Inc()
		v.Hits = s.searchByIndex(q)
	}
	s.render(w, r, v)
}

// handleSuggest serves search-box type-ahead as a JSON array (the jQuery
// autocomplete a 2012 video site would wire to the search field).
func (s *Site) handleSuggest(w http.ResponseWriter, r *http.Request) {
	suggestions := s.Index().Suggest(r.FormValue("q"), 8)
	if suggestions == nil {
		suggestions = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(suggestions)
}

func (s *Site) searchByIndex(q string) []videoView {
	hits := s.Index().Search(q, 25)
	out := make([]videoView, 0, len(hits))
	for _, hit := range hits {
		if vals, err := s.db.Project("videos", hit.Doc, viewCols); err == nil {
			out = append(out, s.videoView(projection{viewCols, vals}))
		}
	}
	return out
}

// ---- register / verify / login / logout (Figures 19-21) ----

func (s *Site) handleRegisterPage(w http.ResponseWriter, r *http.Request) {
	s.render(w, r, view{Page: "register", Title: "Register"})
}

func (s *Site) handleRegister(w http.ResponseWriter, r *http.Request) {
	id, err := s.register(r.FormValue("username"), r.FormValue("password"), r.FormValue("email"), false)
	if err != nil {
		s.render(w, r, view{Page: "register", Title: "Register", Error: err.Error()})
		return
	}
	// The paper verifies membership "via e-mail"; with no mailbox in the
	// testbed the verification link is returned in a header (the
	// simulated email) and the page tells the user to check mail.
	token := randomToken()
	s.state.mu.Lock()
	if s.state.verifyTokens == nil {
		s.state.verifyTokens = make(map[[32]byte]int64)
	}
	s.state.verifyTokens[tenant.HashToken(token)] = id
	s.state.mu.Unlock()
	w.Header().Set("X-Verification-Link", "/verify?token="+token)
	s.render(w, r, view{Page: "login", Title: "Log in",
		Error: "Registered. Check your email for the verification link."})
}

func (s *Site) handleVerify(w http.ResponseWriter, r *http.Request) {
	token := r.FormValue("token")
	s.state.mu.Lock()
	id, ok := s.state.verifyTokens[tenant.HashToken(token)]
	if ok {
		delete(s.state.verifyTokens, tenant.HashToken(token))
	}
	s.state.mu.Unlock()
	if !ok {
		http.Error(w, "bad verification token", http.StatusBadRequest)
		return
	}
	if err := s.verifyUser(id); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.render(w, r, view{Page: "login", Title: "Log in", Error: "Account verified — you can log in now."})
}

func (s *Site) handleLoginPage(w http.ResponseWriter, r *http.Request) {
	s.render(w, r, view{Page: "login", Title: "Log in"})
}

func (s *Site) handleLogin(w http.ResponseWriter, r *http.Request) {
	token, err := s.login(r.FormValue("username"), r.FormValue("password"))
	if err != nil {
		s.render(w, r, view{Page: "login", Title: "Log in", Error: err.Error()})
		return
	}
	http.SetCookie(w, &http.Cookie{Name: "session", Value: token, Path: "/"})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Site) handleLogout(w http.ResponseWriter, r *http.Request) {
	if c, err := r.Cookie("session"); err == nil {
		s.logout(c.Value)
	}
	http.SetCookie(w, &http.Cookie{Name: "session", Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// ---- upload (Figure 22) ----

func (s *Site) handleUploadPage(w http.ResponseWriter, r *http.Request) {
	s.render(w, r, view{Page: "upload", Title: "Upload"})
}

func (s *Site) handleUpload(w http.ResponseWriter, r *http.Request) {
	p := s.principal(r)
	if p == nil {
		http.Error(w, "log in to upload", http.StatusUnauthorized)
		return
	}
	if !p.role.CanWrite() {
		http.Error(w, "read-only token cannot upload", http.StatusForbidden)
		return
	}
	// Receiving the body is a real cost on large uploads; giving it a span
	// keeps it out of the root's unattributed self-time.
	bsp := trace.FromContext(r.Context()).StartChild("web.receive_body")
	u, err := receiveUpload(r)
	if err != nil {
		bsp.SetError(err)
		bsp.End()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bsp.AnnotateInt("bytes", int64(len(u.video)))
	bsp.End()
	if u.video == nil {
		http.Error(w, "missing video file", http.StatusBadRequest)
		return
	}
	title := strings.TrimSpace(u.title)
	if title == "" {
		uploadBodies.Put(u.video)
		http.Error(w, "title required", http.StatusBadRequest)
		return
	}
	// Session principals carry their tenant on the context too, so the
	// quota/ledger path below sees one identity shape for both auth modes.
	ctx := r.Context()
	if _, _, ok := tenant.FromContext(ctx); !ok && p.ten != nil {
		ctx = tenant.WithContext(ctx, p.ten, p.role)
	}
	// The transcode job gives the body back once it is converted; an upload
	// refused before it is queued gives it back here.
	id, err := s.processUpload(ctx, p.userID, title, u.description, u.video, true)
	if err != nil {
		uploadBodies.Put(u.video)
		if s.writeTenantError(w, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/watch/%d", id), http.StatusSeeOther)
}

// The upload form's bounds. The video file may hold up to maxUploadBytes.
// Every other part — title, description, and any field or file the site
// does not read — counts against maxFormBytes together, and a form has at
// most maxFormParts parts, as multipart.Reader.ReadForm allows.
// uploadPresizeBytes caps how much of a claimed Content-Length is allocated
// before the bytes arrive, and the size of a body kept for reuse.
const (
	maxFormBytes       = 64 << 10
	maxFormParts       = 1000
	uploadPresizeBytes = 16 << 20
)

var (
	errFormTooLarge  = errors.New("web: upload form fields too large")
	errVideoTooLarge = errors.New("web: video file too large")
)

// upload is what /upload keeps of its form: the first file in the video
// field (nil when there is none), and the first title and description, a
// query parameter taking precedence over a form field as in
// http.Request.FormValue.
type upload struct {
	video              []byte
	title, description string
}

// uploadReadBytes is the piece an /upload body is read from its connection
// in: multipart.Reader reads through a 4 KiB buffer of its own, so under it
// sits one of these (uploadReaders), and a 4 MB upload is about 60 reads of
// the body rather than about 1 000.
const uploadReadBytes = 64 << 10

var uploadReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, uploadReadBytes) }}

// uploadBodies holds the video files /upload received and the transcode job
// gave back once converted: two, the body being converted and the next one
// arriving, for the next upload to read into without zeroing a new buffer.
// Only bodies the site read itself go back; ProcessUpload's callers keep
// theirs.
var uploadBodies = video.NewBuffers(2, uploadPresizeBytes)

// receiveUpload reads an /upload body in one pass over its parts, copying the
// video file once, into a buffer sized from Content-Length, and no other part
// beyond the two text fields it keeps. It accepts what ParseMultipartForm
// accepted, within the bounds above. The video file is from uploadBodies,
// and goes back there when the form is refused.
func receiveUpload(r *http.Request) (u upload, err error) {
	defer func() {
		if err != nil && u.video != nil {
			uploadBodies.Put(u.video)
			u.video = nil
		}
	}()
	ct, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || ct != "multipart/form-data" {
		return u, http.ErrNotMultipart
	}
	query, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return u, err
	}
	boundary := params["boundary"]
	if boundary == "" {
		return u, http.ErrMissingBoundary
	}
	br := uploadReaders.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil)
		uploadReaders.Put(br)
	}()
	mr := multipart.NewReader(br, boundary)
	formLeft := int64(maxFormBytes)
	haveTitle, haveDescription := false, false
	for parts := 0; ; parts++ {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return u, err
		}
		if parts == maxFormParts {
			return u, multipart.ErrMessageTooLarge
		}
		name, file := p.FormName(), p.FileName() != ""
		if name == "video" && file && u.video == nil {
			if u.video, err = readVideo(p, r.ContentLength); err != nil {
				return u, err
			}
			continue
		}
		var dst *string
		switch {
		case name == "title" && !file && !haveTitle:
			dst, haveTitle = &u.title, true
		case name == "description" && !file && !haveDescription:
			dst, haveDescription = &u.description, true
		}
		var n int64
		if dst != nil {
			var b []byte
			b, err = io.ReadAll(io.LimitReader(p, formLeft+1))
			n, *dst = int64(len(b)), string(b)
		} else {
			n, err = io.CopyN(io.Discard, p, formLeft+1)
			if err == io.EOF {
				err = nil
			}
		}
		if err != nil {
			return u, err
		}
		if formLeft -= n; formLeft < 0 {
			return u, errFormTooLarge
		}
	}
	if v := query["title"]; len(v) > 0 {
		u.title = v[0]
	}
	if v := query["description"]; len(v) > 0 {
		u.description = v[0]
	}
	return u, nil
}

// readVideo reads a video part into one buffer from uploadBodies: sized from
// the request's Content-Length (the whole body, so it holds the part) up to
// uploadPresizeBytes, and grown only when a part outruns it. A part it
// refuses gives the buffer back.
func readVideo(p io.Reader, contentLength int64) ([]byte, error) {
	p = io.LimitReader(p, maxUploadBytes+1)
	buf := uploadBodies.Get(int(min(max(contentLength, 512), uploadPresizeBytes)))[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), maxUploadBytes+1-len(buf)))
		}
		n, err := p.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == nil {
			continue
		}
		if err == io.EOF && len(buf) <= maxUploadBytes {
			return buf, nil
		}
		uploadBodies.Put(buf)
		if err == io.EOF {
			return nil, errVideoTooLarge
		}
		return nil, err
	}
}

// ProcessUpload runs the paper's upload pipeline (Figures 14 and 16): probe
// the file, record film metadata in the database, convert it to the playback
// target plus every rendition in one farm pass, store the results through
// the FUSE mount into HDFS, and index it for search. Exposed so experiments
// can drive uploads without HTTP multipart overhead.
//
// The conversion happens asynchronously: the call returns the video id as
// soon as the row (status "processing") is queued, and the transcode pool
// flips it to "ready" when playable or to "failed" if the conversion fails.
// A tenant over its fair share of the queue is refused with a
// tenant.ThrottleError and leaves no row behind.
//
// ctx carries the request's trace span; the queue, farm, and store spans all
// become children of it. data stays the caller's: the site only reads it.
func (s *Site) ProcessUpload(ctx context.Context, uploaderID int64, title, description string, data []byte) (id int64, err error) {
	return s.processUpload(ctx, uploaderID, title, description, data, false)
}

// processUpload is ProcessUpload; recycle says data is a body /upload read
// into a buffer of uploadBodies, which the transcode job gives back once it
// has converted it. The caller keeps a body that is refused (an error).
func (s *Site) processUpload(ctx context.Context, uploaderID int64, title, description string, data []byte, recycle bool) (id int64, err error) {
	psp := trace.FromContext(ctx).StartChild("video.probe")
	info, err := video.Probe(data)
	if err != nil {
		psp.SetError(err)
		psp.End()
		return 0, fmt.Errorf("web: not a playable upload: %w", err)
	}
	psp.End()
	// Check-and-reserve quota admission for the context's tenant (the
	// default tenant, unlimited, when the caller carries none): source
	// seconds against the hourly transcode window and an upper-bound
	// storage estimate, corrected to the exact size at publish. Denials
	// are typed ErrQuotaExceeded — the handler maps them to 429.
	ten, _, _ := tenant.FromContext(ctx)
	adm, err := s.admitUpload(ten, len(data), info.DurationSeconds)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			adm.release() // nothing was queued: the upload consumed nothing
		}
	}()
	isp := trace.FromContext(ctx).StartChild("db.insert")
	id, err = s.db.Insert("videos", videodb.Row{
		"title": title, "description": description,
		"uploader_id":      uploaderID,
		"duration_seconds": int64(info.DurationSeconds),
		"status":           statusProcessing,
		"tenant":           adm.ten.Name(),
	})
	if err != nil {
		isp.SetError(err)
		isp.End()
		return 0, err
	}
	isp.End()
	trace.FromContext(ctx).AnnotateInt("video_id", id)
	if err = s.enqueueTranscode(ctx, transcodeJob{videoID: id, data: data, recycle: recycle, enqueued: time.Now(), adm: adm}); err != nil {
		// Throttled or shut down: no one will ever convert the row, so
		// remove it.
		s.db.Delete("videos", id)
		return 0, err
	}
	return id, nil
}

// ---- watch & stream (Figure 23) ----

// canonicalNumber reports whether s, which strconv has parsed, is also what
// strconv prints for that number: a title's ids and segment indexes have the
// one spelling its playlists list, so a URL names one object and a cached
// copy of it has one key for unpublish to purge (delivery.go).
func canonicalNumber(s string) bool { return s == "0" || s[0] >= '1' && s[0] <= '9' }

// parseVideoID parses a title id from a URL path segment.
func parseVideoID(seg string) (int64, error) {
	id, err := strconv.ParseInt(seg, 10, 64)
	if err != nil || !canonicalNumber(seg) {
		return 0, fmt.Errorf("web: bad video id %q", seg)
	}
	return id, nil
}

// videoIDOf parses the request's {id}: the title a POST /watch/{id}/...
// action names.
func videoIDOf(r *http.Request) (int64, error) { return parseVideoID(r.PathValue("id")) }

func (s *Site) videoByRequest(r *http.Request) (videodb.Row, error) {
	id, err := videoIDOf(r)
	if err != nil {
		return nil, err
	}
	sp := trace.FromContext(r.Context()).StartChild("db.get")
	row, err := s.db.Get("videos", id)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return row, err
}

// project reads cols of title id: what a page or a delivery handler shows of
// a title, without copying the rest of its row.
func (s *Site) project(ctx context.Context, id int64, cols []string) (projection, error) {
	sp := trace.FromContext(ctx).StartChild("db.get")
	vals, err := s.db.Project("videos", id, cols)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return projection{cols, vals}, err
}

// handleWatch serves /watch/{id}, parsing its own path as the media routes
// do: a path of any other shape is its 404.
func (s *Site) handleWatch(w http.ResponseWriter, r *http.Request) {
	tail, n := mediaTail(r)
	id, err := parseVideoID(tail[0])
	var p projection
	if err == nil && n == 1 {
		p, err = s.project(r.Context(), id, viewCols)
	}
	if err != nil || n != 1 {
		http.NotFound(w, r)
		return
	}
	v := view{Page: "watch", Title: p.str(vcTitle), Video: s.videoView(p)}
	// Counted in the store, under its lock: concurrent viewers all count.
	// A drifted row that holds no integer keeps its placeholder.
	if views, err := s.db.Add("videos", id, "views", 1); err == nil {
		v.Video.Views = views
	}
	var qualities [4]string // a ladder longer than this grows onto the heap
	v.Qualities = appendLabels(qualities[:0], p.str(vcRenditions))
	if u := s.currentUser(r); u != nil {
		v.Owner = u["id"] == p.vals[vcUploader] || rowBool(u, "admin")
	}
	// Related videos (§IV-A "related ranking methods").
	v.Related = s.relatedVideos(id)
	comments, _ := s.db.Select("comments", "video_id", id)
	for _, c := range comments {
		v.Comments = append(v.Comments, commentView{
			User: s.userName(rowInt(c, "user_id"), "anonymous"),
			Text: rowString(c, "text"),
		})
	}
	s.render(w, r, v)
}

// appendLabels appends the labels a renditions column lists to dst, as
// strings.Split(labels, ",") would list them.
func appendLabels(dst []string, labels string) []string {
	for {
		label, rest, more := strings.Cut(labels, ",")
		dst = append(dst, label)
		if !more {
			return dst
		}
		labels = rest
	}
}

// ---- comments, reports, edit, delete ----

func (s *Site) handleComment(w http.ResponseWriter, r *http.Request) {
	user := s.currentUser(r)
	if user == nil {
		http.Error(w, "log in to comment", http.StatusUnauthorized)
		return
	}
	row, err := s.videoByRequest(r)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	text := strings.TrimSpace(r.FormValue("text"))
	if text == "" {
		http.Error(w, "empty comment", http.StatusBadRequest)
		return
	}
	s.db.Insert("comments", videodb.Row{
		"video_id": rowInt(row, "id"), "user_id": rowInt(user, "id"), "text": text,
	})
	s.reg.Counter("comments").Inc()
	http.Redirect(w, r, fmt.Sprintf("/watch/%d", rowInt(row, "id")), http.StatusSeeOther)
}

func (s *Site) handleReport(w http.ResponseWriter, r *http.Request) {
	row, err := s.videoByRequest(r)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	s.db.Add("videos", rowInt(row, "id"), "reports", 1)
	s.reg.Counter("reports").Inc()
	http.Redirect(w, r, fmt.Sprintf("/watch/%d", rowInt(row, "id")), http.StatusSeeOther)
}

// authorizeOwner resolves the request's principal and checks it may mutate
// the addressed video. errNeedAuth means no credentials (401); everything
// else — wrong owner, wrong tenant, read-only token — is errForbidden
// (403). See principal.owns for the tenant-scoping rules.
func (s *Site) authorizeOwner(r *http.Request) (videodb.Row, error) {
	p := s.principal(r)
	if p == nil {
		return nil, errNeedAuth
	}
	row, err := s.videoByRequest(r)
	if err != nil {
		return nil, err
	}
	if !p.role.CanWrite() || !p.owns(row) {
		return nil, errForbidden
	}
	return row, nil
}

// writeAuthzError maps authorizeOwner failures: missing credentials 401,
// everything else (wrong owner/tenant/role, missing row) 403 as before.
func writeAuthzError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNeedAuth) {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	http.Error(w, err.Error(), http.StatusForbidden)
}

func (s *Site) handleDelete(w http.ResponseWriter, r *http.Request) {
	row, err := s.authorizeOwner(r)
	if err != nil {
		writeAuthzError(w, err)
		return
	}
	if err := s.unpublish(row); errors.Is(err, errBeingWritten) {
		// The publish (or its failure clean-up, or the channel's end) settles
		// what the row names first.
		w.Header().Set("Retry-After", "2")
		http.Error(w, err.Error(), http.StatusConflict)
	} else if err != nil { // lost a race with another delete
		http.NotFound(w, r)
	} else {
		http.Redirect(w, r, "/", http.StatusSeeOther)
	}
}

func (s *Site) handleEdit(w http.ResponseWriter, r *http.Request) {
	row, err := s.authorizeOwner(r)
	if err != nil {
		writeAuthzError(w, err)
		return
	}
	id := rowInt(row, "id")
	title := strings.TrimSpace(r.FormValue("title"))
	if title == "" {
		http.Error(w, "title required", http.StatusBadRequest)
		return
	}
	s.db.Update("videos", id, videodb.Row{"title": title, "description": r.FormValue("description")})
	s.reindex(id)
	http.Redirect(w, r, fmt.Sprintf("/watch/%d", id), http.StatusSeeOther)
}

// ---- my videos & admin ----

func (s *Site) handleMy(w http.ResponseWriter, r *http.Request) {
	user := s.currentUser(r)
	if user == nil {
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return
	}
	rows, _ := s.db.Select("videos", "uploader_id", rowInt(user, "id"))
	v := view{Page: "my", Title: "My videos"}
	for _, row := range rows {
		v.Hits = append(v.Hits, s.videoView(project(row, viewCols)))
	}
	s.render(w, r, v)
}

func (s *Site) handleAdmin(w http.ResponseWriter, r *http.Request) {
	user := s.currentUser(r)
	if user == nil || !rowBool(user, "admin") {
		http.Error(w, "administrators only", http.StatusForbidden)
		return
	}
	v := view{Page: "admin", Title: "Admin"}
	users, _ := s.db.Scan("users", func(videodb.Row) bool { return true })
	for _, u := range users {
		v.Users = append(v.Users, userView{Name: rowString(u, "username"), Blocked: rowBool(u, "blocked")})
	}
	reported, _ := s.db.Scan("videos", func(row videodb.Row) bool {
		reports, _ := row["reports"].(int64)
		return reports > 0
	})
	for _, row := range reported {
		v.Hits = append(v.Hits, s.videoView(project(row, viewCols)))
	}
	s.render(w, r, v)
}

func (s *Site) handleBlock(w http.ResponseWriter, r *http.Request) {
	user := s.currentUser(r)
	if user == nil || !rowBool(user, "admin") {
		http.Error(w, "administrators only", http.StatusForbidden)
		return
	}
	target, err := s.db.SelectOne("users", "username", r.FormValue("username"))
	if err != nil {
		target, err = s.db.SelectOne("users", "username", r.FormValue("user"))
	}
	if err != nil {
		http.NotFound(w, r)
		return
	}
	targetID := rowInt(target, "id")
	blocked := r.FormValue("blocked") != "false"
	s.db.Update("users", targetID, videodb.Row{"blocked": blocked})
	if blocked {
		// Kill the blocked user's sessions fleet-wide.
		s.state.mu.Lock()
		for tok, uid := range s.state.sessions {
			if uid == targetID {
				delete(s.state.sessions, tok)
			}
		}
		s.state.mu.Unlock()
	}
	http.Redirect(w, r, "/admin", http.StatusSeeOther)
}
