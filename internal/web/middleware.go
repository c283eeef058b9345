package web

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"videocloud/internal/metrics"
	"videocloud/internal/tenant"
)

// Request IDs are a salted counter run through a 64-bit mixer: unique per
// process, cheap (no entropy read per request), and unguessable enough for
// log correlation. The salt is drawn once at startup.
var (
	ridSeq  atomic.Uint64
	ridSalt = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("web: entropy unavailable: %v", err))
		}
		return binary.BigEndian.Uint64(b[:])
	}()
)

const hexDigits = "0123456789abcdef"

// idBlock holds the digits of 4096 request IDs, each slot written once by
// the request that takes it and only read after. An ID is a string viewing
// its slot, so a request spends no allocation on it. The slots are not in the
// request's own state on purpose: an ID outlives its request wherever it is
// kept (net/http's pooled header writers hold on to the last values they
// wrote), and a view of the state would keep the state alive with the
// connection and the server its context leads to — every retired fleet of
// a process that boots several. A kept ID holds 64 KiB.
type idBlock struct {
	next atomic.Int64
	ids  [4096][16]byte
}

var idBlocks atomic.Pointer[idBlock]

// nextRequestID returns a 16-hex-digit per-request ID.
func nextRequestID() string {
	x := ridSalt ^ (ridSeq.Add(1) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	for {
		b := idBlocks.Load()
		if i := b.take(); i >= 0 {
			id := &b.ids[i]
			for j := len(id) - 1; j >= 0; j-- {
				id[j] = hexDigits[x&15]
				x >>= 4
			}
			return unsafe.String(&id[0], len(id))
		}
		idBlocks.CompareAndSwap(b, new(idBlock))
	}
}

// take claims a free slot of b, or answers -1 when b is nil or full.
func (b *idBlock) take() int64 {
	if b == nil {
		return -1
	}
	if i := b.next.Add(1) - 1; i < int64(len(b.ids)) {
		return i
	}
	return -1
}

// ridKey keys the request's state in its context.
type ridKey struct{}

// requestState is what the middleware keeps for one request, in one
// allocation. It is the request's context: it answers for its ID and passes
// every other value, its deadline and its cancellation through to the
// connection's context it wraps. It holds the request handlers are given,
// the status recorder they write through and the backing of the
// X-Request-Id header value.
type requestState struct {
	context.Context
	id    string
	idHdr [1]string
	rec   statusRecorder
	req   http.Request // what handlers are given: the connection's request over this state (or a span's context on it)
}

func (rs *requestState) Value(key any) any {
	if key == (ridKey{}) {
		return rs
	}
	return rs.Context.Value(key)
}

// requestIDFrom returns the request's ID ("-" when the middleware did not
// run, e.g. direct handler tests).
func requestIDFrom(ctx context.Context) string {
	if rs, ok := ctx.Value(ridKey{}).(*requestState); ok {
		return rs.id
	}
	return "-"
}

// maxInFlight is the admission limit: requests beyond it are shed with 503
// instead of queueing unboundedly — the serving tier degrades predictably
// when the paper's "heavy traffic" arrives faster than the hardware can
// drain it.
const maxInFlight = 256

// routeMetrics holds the pre-resolved instruments for one route so the hot
// path never takes the registry's name-lookup lock.
type routeMetrics struct {
	route    string
	requests *metrics.Counter
	latency  *metrics.Histogram
	inflight *metrics.Gauge
	panics   *metrics.Counter
	status   [6]*metrics.Counter // status[c] counts HTTP c00-c99 responses
}

// RouteStats is a point-in-time summary of one route's traffic, surfaced
// through core.Status and the experiment tables.
type RouteStats struct {
	Route    string
	Requests int64
	InFlight int64
	Panics   int64
	// StatusNxx count responses by status class.
	Status2xx, Status3xx, Status4xx, Status5xx int64
	// Latency summarises per-request wall time in seconds.
	Latency metrics.Snapshot
}

// RouteStatsOf returns the per-route traffic of sites, in registration order:
// counters summed, latency histograms merged. Pass one replica for its own
// view, a fleet's replicas for the fleet's. Every replica registers the same
// routes in the same order (routes()).
func RouteStatsOf(sites ...*Site) []RouteStats {
	out := make([]RouteStats, len(sites[0].routeMetrics))
	for i, first := range sites[0].routeMetrics {
		rs := RouteStats{Route: first.route}
		var latency metrics.Histogram
		for _, s := range sites {
			rm := s.routeMetrics[i]
			rs.Requests += rm.requests.Value()
			rs.InFlight += rm.inflight.Value()
			rs.Panics += rm.panics.Value()
			rs.Status2xx += rm.status[2].Value()
			rs.Status3xx += rm.status[3].Value()
			rs.Status4xx += rm.status[4].Value()
			rs.Status5xx += rm.status[5].Value()
			latency.Merge(rm.latency)
		}
		rs.Latency = latency.Snapshot()
		out[i] = rs
	}
	return out
}

// metricsFor returns the route's instruments, creating them on first use.
// GET/POST pairs of the same page share one set. Only called from routes()
// and tests, before traffic arrives, so no lock is needed.
func (s *Site) metricsFor(route string) *routeMetrics {
	for _, rm := range s.routeMetrics {
		if rm.route == route {
			return rm
		}
	}
	rm := &routeMetrics{
		route:    route,
		requests: s.reg.Counter("http_" + route + "_requests"),
		latency:  s.reg.Histogram("http_" + route + "_latency_seconds"),
		inflight: s.reg.Gauge("http_" + route + "_inflight"),
		panics:   s.reg.Counter("http_" + route + "_panics"),
	}
	for c := 2; c <= 5; c++ {
		rm.status[c] = s.reg.Counter(fmt.Sprintf("http_%s_status_%dxx", route, c))
	}
	s.routeMetrics = append(s.routeMetrics, rm)
	return rm
}

// statusRecorder captures the response status for the status-class counters
// while passing writes straight through (including Flush for streaming).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's writer, for
// its write deadlines among others.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the serving-path middleware: admission
// control (shed with 503 over the in-flight limit), per-request IDs echoed
// as X-Request-ID, a root trace span per sampled request, per-route request/
// status/latency/in-flight instruments, and panic recovery so one malformed
// request can never take down the handler goroutine silently.
func (s *Site) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.metricsFor(route)
	shed := s.reg.Counter("http_shed")
	globalInflight := s.reg.Gauge("http_inflight")
	spanName := "web." + route
	return func(w http.ResponseWriter, r *http.Request) {
		rs := &requestState{Context: r.Context(), id: nextRequestID()}
		rs.rec.ResponseWriter = w
		rid := rs.id
		// Stored under its canonical key, which is what Header().Set would
		// spend an allocation per request working out; Header.Get finds it
		// under any spelling.
		rs.idHdr[0] = rid
		w.Header()["X-Request-Id"] = rs.idHdr[:]
		n := s.inflightNow.Add(1)
		if n > maxInFlight {
			s.inflightNow.Add(-1)
			shed.Inc()
			http.Error(w, "server busy — try again shortly", http.StatusServiceUnavailable)
			return
		}
		globalInflight.Set(n)
		rm.inflight.Add(1)
		rm.requests.Inc()
		ctx, sp := s.tracer.StartSpan(rs, spanName)
		if sp != nil {
			// A copy: a retained trace would keep the ID's whole block.
			sp.Annotate("request_id", strings.Clone(rid))
			sp.Annotate("method", r.Method)
			sp.Annotate("path", r.URL.Path)
		}
		// Handlers see the request with the state as its context. The copy
		// lands in the state's own field: WithContext is inlined, so its
		// new Request stays on the stack and costs no allocation.
		rs.req = *r.WithContext(ctx)
		r = &rs.req
		sw := &rs.rec
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				rm.panics.Inc()
				s.reg.Counter("http_panics").Inc()
				log.Printf("web: panic in %s handler (request %s): %v", route, rid, p)
				sp.SetError(fmt.Errorf("panic: %v", p))
				if sw.status == 0 {
					http.Error(sw.ResponseWriter, "internal error", http.StatusInternalServerError)
					sw.status = http.StatusInternalServerError
				}
			}
			rm.latency.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
			class := sw.status / 100
			if sw.status == 0 {
				class = 2 // nothing written: net/http sends 200 on close
			}
			if class >= 2 && class <= 5 {
				rm.status[class].Inc()
			}
			if sp != nil {
				sp.Annotate("status", strconv.Itoa(sw.status))
				if class == 5 {
					sp.SetError(fmt.Errorf("http %d", sw.status))
				}
			}
			sp.End()
			rm.inflight.Add(-1)
			globalInflight.Set(s.inflightNow.Add(-1))
		}()
		// API-token auth: a Bearer header resolves to a tenant identity on
		// the request context (401 on a bad token); the root span is
		// annotated so traces attribute per tenant.
		var ok bool
		if r, ok = s.resolveBearer(sw, r); !ok {
			return
		}
		if ten, _, found := tenant.FromContext(r.Context()); found && sp != nil {
			sp.Annotate("tenant", ten.Name())
		}
		h(sw, r)
	}
}
