package web

import (
	"bytes"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"testing"
)

// uploadOutcome is how handleUpload answers a received form before the
// pipeline sees it: the receive failed, the form has no video file, its title
// is blank, or it goes on to ProcessUpload.
func uploadOutcome(err error, u upload, haveVideo bool) string {
	switch {
	case err != nil:
		return "400 bad form"
	case !haveVideo:
		return "400 missing video file"
	case strings.TrimSpace(u.title) == "":
		return "400 title required"
	}
	return "processed"
}

// receiveUploadOracle is the /upload receive receiveUpload replaced:
// ParseMultipartForm with the whole upload allowed in memory, FormFile, a
// ReadAll of the part, and FormValue for the text fields.
func receiveUploadOracle(r *http.Request) (upload, string) {
	var u upload
	if err := r.ParseMultipartForm(maxUploadBytes); err != nil {
		return u, uploadOutcome(err, u, false)
	}
	file, _, err := r.FormFile("video")
	if err != nil {
		return u, uploadOutcome(nil, u, false)
	}
	defer file.Close()
	data, err := io.ReadAll(io.LimitReader(file, maxUploadBytes))
	if err != nil {
		return u, uploadOutcome(err, u, true)
	}
	u = upload{video: data, title: r.FormValue("title"), description: r.FormValue("description")}
	return u, uploadOutcome(nil, u, true)
}

// uploadRequest is a POST /upload with the given query, Content-Type and body.
func uploadRequest(query, contentType string, body []byte) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: "/upload", RawQuery: query},
		Header:        http.Header{"Content-Type": {contentType}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// uploadForm is a multipart body of the given parts, each a header and a
// body, under the boundary "b0undary".
func uploadForm(parts ...[2]string) []byte {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.SetBoundary("b0undary")
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		for _, line := range strings.Split(p[0], "\n") {
			if k, v, ok := strings.Cut(line, ": "); ok {
				h.Add(k, v)
			}
		}
		w, _ := mw.CreatePart(h)
		io.WriteString(w, p[1])
	}
	mw.Close()
	return buf.Bytes()
}

const uploadFormType = "multipart/form-data; boundary=b0undary"

// FuzzUploadForm holds receiveUpload to the ParseMultipartForm receive it
// replaced, over arbitrary queries, Content-Types and bodies: the same video
// bytes, title and description, and the same answer — a bad form, a missing
// video file, a blank title, or on to the pipeline. The one difference
// allowed is the bound: every byte but the video file's counts against
// maxFormBytes, so a longer body may be refused as too large.
func FuzzUploadForm(f *testing.F) {
	video := `Content-Disposition: form-data; name="video"; filename="clip.vcf"`
	title := `Content-Disposition: form-data; name="title"`
	desc := `Content-Disposition: form-data; name="description"`
	whole := uploadForm([2]string{title, "a title"}, [2]string{desc, "a description"}, [2]string{video, "VCF1 the bytes"})
	for _, seed := range []struct {
		query, contentType string
		body               []byte
	}{
		{"", uploadFormType, whole},
		{"title=from+the+query", uploadFormType, whole},
		{"title", uploadFormType, whole},
		{"description=x&title=%zz", uploadFormType, whole},
		{"a=1;b=2", uploadFormType, whole},
		{"", "multipart/mixed; boundary=b0undary", whole},
		{"", "multipart/form-data", whole},
		{"", "Multipart/Form-Data; Boundary=b0undary", whole},
		{"", "", whole},
		{"", "application/x-www-form-urlencoded", []byte("title=x&video=y")},
		{"", uploadFormType, whole[:len(whole)-5]},
		{"", uploadFormType, whole[:len(whole)/2]},
		{"", uploadFormType, uploadForm([2]string{title, " \t "}, [2]string{video, "v"})},
		{"", uploadFormType, uploadForm([2]string{title, "t"})},
		{"", uploadFormType, uploadForm([2]string{title, "t"}, [2]string{`Content-Disposition: form-data; name="video"`, "not a file"})},
		{"", uploadFormType, uploadForm([2]string{title, "t"}, [2]string{video, ""})},
		{"", uploadFormType, uploadForm([2]string{video, "first"}, [2]string{video, "second"}, [2]string{title, "one"}, [2]string{title, "two"})},
		{"", uploadFormType, uploadForm([2]string{`Content-Disposition: form-data; name="title"; filename="t.txt"`, "a file"}, [2]string{video, "v"})},
		{"", uploadFormType, uploadForm([2]string{`Content-Disposition: attachment; name="title"`, "not form-data"}, [2]string{title, "t"}, [2]string{video, "v"})},
		{"", uploadFormType, uploadForm([2]string{"Content-Type: text/plain", "unnamed"}, [2]string{title, "t"}, [2]string{video, "v"})},
		{"", uploadFormType, uploadForm([2]string{title + "\nContent-Transfer-Encoding: quoted-printable", "caf=C3=A9"}, [2]string{video + "\nContent-Transfer-Encoding: quoted-printable", "=00=FF="})},
		{"", uploadFormType, uploadForm([2]string{`Content-Disposition: form-data; name="video"; filename="../../x"`, "v"}, [2]string{title, "t"})},
		{"", uploadFormType, []byte("--b0undary--\r\n")},
		{"", uploadFormType, nil},
	} {
		f.Add(seed.query, seed.contentType, seed.body)
	}
	f.Fuzz(func(t *testing.T, query, contentType string, body []byte) {
		want, wantOutcome := receiveUploadOracle(uploadRequest(query, contentType, body))
		got, err := receiveUpload(uploadRequest(query, contentType, body))
		if errors.Is(err, errFormTooLarge) {
			if len(body) <= maxFormBytes {
				t.Fatalf("a %d-byte body was refused as over the %d-byte form bound", len(body), maxFormBytes)
			}
			return
		}
		gotOutcome := uploadOutcome(err, got, got.video != nil)
		if gotOutcome != wantOutcome {
			t.Fatalf("query %q, Content-Type %q: receiveUpload answers %q (err %v), ParseMultipartForm %q",
				query, contentType, gotOutcome, err, wantOutcome)
		}
		if gotOutcome == "400 bad form" || gotOutcome == "400 missing video file" {
			return
		}
		if !bytes.Equal(got.video, want.video) || got.title != want.title || got.description != want.description {
			t.Fatalf("query %q, Content-Type %q: receiveUpload kept %d video bytes, title %q, description %q; ParseMultipartForm %d, %q, %q",
				query, contentType, len(got.video), got.title, got.description, len(want.video), want.title, want.description)
		}
	})
}

// TestUploadFormBounds: text fields over maxFormBytes together, or a form of
// more than maxFormParts parts, are refused; the video file is not counted
// against the text bound.
func TestUploadFormBounds(t *testing.T) {
	title := `Content-Disposition: form-data; name="title"`
	video := `Content-Disposition: form-data; name="video"; filename="v"`
	big := strings.Repeat("x", maxFormBytes)
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"a title at the bound", uploadForm([2]string{title, big}, [2]string{video, big + big}), nil},
		{"a title over the bound", uploadForm([2]string{title, big + "x"}, [2]string{video, "v"}), errFormTooLarge},
		{"fields over the bound together", uploadForm([2]string{title, big[:maxFormBytes/2]}, [2]string{`Content-Disposition: form-data; name="other"`, big[:maxFormBytes/2+1]}, [2]string{video, "v"}), errFormTooLarge},
		{"a second video file over the bound", uploadForm([2]string{title, "t"}, [2]string{video, "v"}, [2]string{video, big + "x"}), errFormTooLarge},
		{"too many parts", uploadForm(func() (ps [][2]string) {
			for range maxFormParts + 1 {
				ps = append(ps, [2]string{title, ""})
			}
			return
		}()...), multipart.ErrMessageTooLarge},
	} {
		u, err := receiveUpload(uploadRequest("", uploadFormType, tc.body))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && (u.title != big || len(u.video) != 2*maxFormBytes) {
			t.Errorf("%s: kept a %d-byte title and %d video bytes", tc.name, len(u.title), len(u.video))
		}
	}
}

// countingReader counts the Read calls made on it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestUploadReceiveReadsInLargePieces: receiveUpload reads the body in
// pieces of at least 64 KiB, so a 4 MiB upload is at most 4 MiB / 64 KiB + 8
// reads of it, where multipart.Reader's own 4 KiB buffer alone made about
// a thousand.
func TestUploadReceiveReadsInLargePieces(t *testing.T) {
	src := strings.Repeat("VCF1 four mebibytes of video ", 4<<20/29+1)[:4<<20]
	body := uploadForm(
		[2]string{`Content-Disposition: form-data; name="title"`, "a title"},
		[2]string{`Content-Disposition: form-data; name="video"; filename="clip.vcf"`, src},
	)
	req := uploadRequest("", uploadFormType, body)
	counted := &countingReader{r: req.Body}
	req.Body = io.NopCloser(counted)
	u, err := receiveUpload(req)
	if err != nil || string(u.video) != src || u.title != "a title" {
		t.Fatalf("receive: err %v, %d video bytes, title %q", err, len(u.video), u.title)
	}
	if limit := 4<<20/(64<<10) + 8; counted.reads > limit {
		t.Errorf("receiving a 4 MiB upload read its body %d times; want at most %d", counted.reads, limit)
	}
	t.Logf("a %d-byte body read in %d calls", len(body), counted.reads)
}
