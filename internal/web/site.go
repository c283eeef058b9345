// Package web is the video website of the paper's §IV and Figures 17-23: a
// Lighttpd+PHP application reproduced as a net/http server. It offers the
// same page set — search home, register, log-in/out, upload, player, and
// administration — over the same substrate mapping: accounts and film
// information in the database (videodb), uploads stored through the FUSE
// mount into HDFS (fusebridge), distributed FFmpeg conversion on upload
// (video.Farm), Nutch-style index search (search.Index), and seekable
// H.264 playback over HTTP ranges: /stream and /segment both answer through
// stream.ServeTagged, which serves one byte range or the whole
// representation straight from cache memory.
package web

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/edge"
	"videocloud/internal/fusebridge"
	"videocloud/internal/metrics"
	"videocloud/internal/search"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// Config assembles a Site.
type Config struct {
	// Store is the FUSE mount where uploads land (required).
	Store *fusebridge.Mount
	// DB is the metadata store. Nil builds a private single-instance
	// videodb.DB (the paper's one MySQL box); a serving fleet passes a
	// shared videodb.ShardedDB so every replica sees the same catalog.
	DB videodb.Store
	// Farm performs distributed conversion of uploads (required: at
	// least one node). The fleet converts on the primary's.
	Farm video.Farm
	// Target is the playback encoding; zero selects the paper's H.264
	// 720p at 2 Mbps with 2-second GOPs.
	Target video.Spec
	// Renditions are additional encodings produced on upload (e.g. a
	// 360p mobile rendition); viewers pick with /stream/{id}?quality=.
	Renditions []video.Spec
	// AdminUser is created at startup with AdminPassword.
	AdminUser, AdminPassword string
	// TranscodeWorkers is how many conversion workers this frontend adds to
	// the fleet's pool (default 1): uploads return immediately with status
	// "processing" while the pool converts in the background. Negative is
	// rejected.
	TranscodeWorkers int
	// TranscodeQueueCap bounds the fleet's one intake queue (default 64; the
	// primary's value, a replica's is not read). A tenant whose backlog reaches
	// its fair share is told to retry (429); one under its share blocks while
	// the queue is full — backpressure, not unbounded buffering.
	TranscodeQueueCap int
	// Tracer, when non-nil and enabled, opens a root span per request in
	// the middleware and threads it through the upload/stream paths down
	// to HDFS block I/O. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// StreamRateBytesPerSec caps this replica's aggregate streaming egress
	// (a per-frontend NIC model: the paper's web VM sits on one GbE port).
	// Zero leaves streaming unpaced.
	StreamRateBytesPerSec int64
	// SegmentSeconds is the play length of delivery segments cut from each
	// rendition at publish time (default twice the target's GOP cadence; must
	// be a multiple of it so segments end on GOP boundaries).
	SegmentSeconds int
	// EdgeCacheBytes sizes this replica's in-memory edge cache for playlist
	// and segment responses (default 64 MiB). The cache is per-frontend, so
	// fleet capacity scales with replicas.
	EdgeCacheBytes int64
	// LiveEdgeTTL bounds how stale a cached playlist may be (default
	// 200ms). Playlists change — live channels grow, titles get deleted —
	// so they are cached with this TTL; published segments are immutable
	// and cached without one.
	LiveEdgeTTL time.Duration
	// Tenants is the multi-tenant registry: API-token auth, per-tenant
	// quotas, the usage ledger, and fair-share transcode weights all hang
	// off it. Nil builds a private registry holding only the default
	// tenant, which preserves the single-operator behaviour exactly. A
	// serving fleet shares the primary's registry.
	Tenants *tenant.Registry
}

// QualityLabel names a rendition by its vertical resolution ("720p").
func QualityLabel(s video.Spec) string { return fmt.Sprintf("%dp", s.Res.H) }

// fleetState is what every replica of a serving fleet shares: the (possibly
// sharded) database, the search index, the home page's recent list and the
// watch pages' related lists derived from them, the username map, the session
// and verification-token tables, the replica list invalidations walk, and the
// conversion farm — one transcode queue and one node set behind the web tier,
// as in the paper's Figures 14/16.
// A single-replica site owns a private instance; NewReplica hands additional
// frontends the same one, so a login on replica 0 is valid on replica 7, an
// upload published through any replica is on every replica's home page, and a
// tenant's fair share is a fraction of one bound however the ingress spread
// its uploads.
type fleetState struct {
	db      videodb.Store
	tenants *tenant.Registry

	// queue is the intake every upload converts through (queue.go); pool is the
	// farm's runtime node set (farmpool.go: elastic add/drain/remove). Both are
	// built from the primary's Config; each replica adds its workers to queue.
	queue *transcodeQueue
	pool  *farmPool

	mu    sync.Mutex
	index *search.Index
	// Session and verification tokens are stored by SHA-256 digest, never
	// in cleartext: lookups hash the presented token and compare digests
	// via the map key, which is a constant-time comparison with respect to
	// the stored credentials (and a state dump leaks no usable tokens).
	sessions     map[[32]byte]int64 // sha256(token) -> user id
	verifyTokens map[[32]byte]int64 // sha256(emailed verification link) -> user id
	adminID      int64

	// rowMu orders the steps that change what a video row names against the
	// steps that derive something from it (publish.go: publish's row half,
	// unpublish, reindex). It stands in for the row transaction a real
	// database gives.
	rowMu sync.Mutex

	// recent is the home page's list, derived under rowMu wherever the
	// catalog changes what is public; usernames maps user id -> username,
	// each key written once (cache.go).
	recent    atomic.Pointer[[]videoLink]
	usernames sync.Map

	// related maps a title id to its watch page's related titles, filled on
	// the title's first watch under the generation relGen had then, and
	// dropped (relGen moves on) wherever the index or a public row changes
	// (cache.go).
	relMu   sync.Mutex
	relGen  uint64
	related map[int64]relatedLinks

	// replicas lists every frontend of the fleet: what a replica caches on
	// its own (edge copies, egress attribution) is invalidated by walking it.
	cmu      sync.Mutex
	replicas []*Site
}

// frontends returns every replica of the fleet.
func (st *fleetState) frontends() []*Site {
	st.cmu.Lock()
	defer st.cmu.Unlock()
	return st.replicas // append-only: the snapshot is safe to walk unlocked
}

// Site is one running frontend replica of the website. Replicas built with
// NewReplica share a fleetState; everything else — route metrics, edge
// cache, circuit breaker, stream pacer, and the counters of the uploads it
// accepted — is per-replica.
type Site struct {
	state  *fleetState
	db     videodb.Store // == state.db, cached for the hot paths
	store  *fusebridge.Mount
	target video.Spec
	specs  []video.Spec // the ladder every upload is converted to: target, then Renditions
	labels []string     // QualityLabel of each spec, the order a row's renditions column lists
	reg    *metrics.Registry
	mux    *http.ServeMux
	tracer *trace.Tracer // nil-safe: all span operations no-op when nil
	// mediaRoutes holds the media routes' handlers by route name, for
	// ServeHTTP to call without the mux (mediaRoute).
	mediaRoutes map[string]http.HandlerFunc

	// Serving-path state (middleware.go) and the instruments of the fleet's
	// recent list, related lists and username map (cache.go), resolved once
	// so a page takes no registry lock.
	routeMetrics                 []*routeMetrics
	inflightNow                  atomic.Int64
	searches                     *metrics.Counter
	recentScans, relatedFills    *metrics.Counter
	usernameHits, usernameMisses *metrics.Counter

	// The media routes' counters (delivery.go), resolved once like the
	// route instruments so a warm media request takes no registry lock.
	segRequests, segOrigin *metrics.Counter
	plRequests, plOrigin   *metrics.Counter
	streamRequests         *metrics.Counter

	// streamPacer caps this replica's streaming egress; nil = unpaced.
	streamPacer *pacer

	// Segmented-delivery state (delivery.go, live.go): the per-replica edge
	// cache, the publish-time segmentation parameters and the memo of what
	// serving a rendition's whole file needs.
	edge       *edge.Cache
	segSeconds int
	liveTTL    time.Duration
	renditions renditionMemo

	// hdfsBreaker fails streaming fast while the store is down
	// (breaker.go).
	hdfsBreaker *breaker

	// tenants caches state.tenants for the hot paths (tenant.go).
	tenants *tenant.Registry
	// tenantCounters holds bounded per-tenant instruments; videoTenant
	// caches video id -> owning tenant for egress attribution on the warm
	// segment path (no database read per cached hit).
	tmu            sync.Mutex
	tenantCounters map[tenantCounterKey]*metrics.Counter
	videoTenant    map[int64]string
}

// validate normalises a Config and reports the first assembly error.
func (cfg *Config) validate() error {
	if cfg.Store == nil {
		return errors.New("web: config missing Store")
	}
	if len(cfg.Farm.Nodes) == 0 {
		return errors.New("web: farm has no conversion nodes")
	}
	if cfg.Target.Codec == "" {
		cfg.Target = video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 2_000_000}
	}
	if cfg.AdminUser == "" {
		cfg.AdminUser = "admin"
		cfg.AdminPassword = "admin"
	}
	for _, r := range cfg.Renditions {
		if r.GOPSeconds != cfg.Target.GOPSeconds {
			return fmt.Errorf("web: rendition %s GOP cadence differs from target", QualityLabel(r))
		}
	}
	if cfg.TranscodeWorkers < 0 {
		return fmt.Errorf("web: TranscodeWorkers must be >= 0, got %d", cfg.TranscodeWorkers)
	}
	if cfg.TranscodeQueueCap < 0 {
		return fmt.Errorf("web: TranscodeQueueCap must be >= 0, got %d", cfg.TranscodeQueueCap)
	}
	if cfg.StreamRateBytesPerSec < 0 {
		return fmt.Errorf("web: StreamRateBytesPerSec must be >= 0, got %d", cfg.StreamRateBytesPerSec)
	}
	if cfg.SegmentSeconds < 0 {
		return fmt.Errorf("web: SegmentSeconds must be >= 0, got %d", cfg.SegmentSeconds)
	}
	if cfg.SegmentSeconds == 0 {
		cfg.SegmentSeconds = 2 * cfg.Target.GOPSeconds
	}
	if cfg.Target.GOPSeconds <= 0 || cfg.SegmentSeconds%cfg.Target.GOPSeconds != 0 {
		return fmt.Errorf("web: SegmentSeconds %d is not a multiple of the target's %ds GOP cadence",
			cfg.SegmentSeconds, cfg.Target.GOPSeconds)
	}
	if cfg.EdgeCacheBytes < 0 {
		return fmt.Errorf("web: EdgeCacheBytes must be >= 0, got %d", cfg.EdgeCacheBytes)
	}
	if cfg.EdgeCacheBytes == 0 {
		cfg.EdgeCacheBytes = 64 << 20
	}
	if cfg.LiveEdgeTTL < 0 {
		return fmt.Errorf("web: LiveEdgeTTL must be >= 0, got %v", cfg.LiveEdgeTTL)
	}
	if cfg.LiveEdgeTTL == 0 {
		cfg.LiveEdgeTTL = 200 * time.Millisecond
	}
	return nil
}

// assemble builds the per-replica half of a Site around shared fleet state.
func assemble(cfg Config, state *fleetState) *Site {
	reg := metrics.NewRegistry()
	s := &Site{
		state:          state,
		db:             state.db,
		store:          cfg.Store,
		target:         cfg.Target,
		specs:          append([]video.Spec{cfg.Target}, cfg.Renditions...),
		reg:            reg,
		searches:       reg.Counter("searches"),
		recentScans:    reg.Counter("cache_recent_scans"),
		relatedFills:   reg.Counter("cache_related_fills"),
		usernameHits:   reg.Counter("cache_username_hits"),
		usernameMisses: reg.Counter("cache_username_misses"),
		segRequests:    reg.Counter("edge_segment_requests"),
		segOrigin:      reg.Counter("edge_segment_origin"),
		plRequests:     reg.Counter("edge_playlist_requests"),
		plOrigin:       reg.Counter("edge_playlist_origin"),
		streamRequests: reg.Counter("stream_requests"),
		tracer:         cfg.Tracer,
		streamPacer:    newPacer(cfg.StreamRateBytesPerSec),
		edge:           edge.New(edge.Config{CapacityBytes: cfg.EdgeCacheBytes}),
		segSeconds:     cfg.SegmentSeconds,
		liveTTL:        cfg.LiveEdgeTTL,
		tenants:        state.tenants,
		videoTenant:    make(map[int64]string),
	}
	for _, spec := range s.specs {
		s.labels = append(s.labels, QualityLabel(spec))
	}
	s.hdfsBreaker = newBreaker(s.reg)
	state.cmu.Lock()
	state.replicas = append(state.replicas, s)
	state.cmu.Unlock()
	s.mux = s.routes()
	state.queue.startWorkers(cfg.TranscodeWorkers)
	return s
}

// New builds the site, creating its database schema and admin account. The
// result is the fleet's primary replica; pass it to NewReplica to add more
// frontends over the same metadata.
func New(cfg Config) (*Site, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	db := cfg.DB
	if db == nil {
		db = videodb.New()
	}
	reg := cfg.Tenants
	if reg == nil {
		reg = tenant.NewRegistry()
	}
	state := &fleetState{
		db:       db,
		tenants:  reg,
		index:    search.NewIndex(),
		related:  make(map[int64]relatedLinks),
		sessions: make(map[[32]byte]int64),
		queue:    newTranscodeQueue(cfg.TranscodeQueueCap),
		pool:     newFarmPool(cfg.Farm),
	}
	s := assemble(cfg, state)
	if err := s.createSchema(); err != nil {
		return nil, err
	}
	s.refreshRecent()
	adminID, err := s.register(cfg.AdminUser, cfg.AdminPassword, "admin@videocloud", true)
	if err != nil {
		return nil, err
	}
	state.mu.Lock()
	state.adminID = adminID
	state.mu.Unlock()
	return s, nil
}

// NewReplica builds an additional frontend over primary's fleet state: same
// database, index, recent list, sessions, admin account, transcode queue and
// farm, but its own edge cache, metrics, circuit breaker, and stream pacer, and
// cfg.TranscodeWorkers more workers on the fleet's queue. cfg must name the
// same Store mount; schema creation and admin registration are skipped (the
// primary already did both).
func NewReplica(cfg Config, primary *Site) (*Site, error) {
	if primary == nil {
		return nil, errors.New("web: NewReplica needs a primary site")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DB != nil && cfg.DB != primary.state.db {
		return nil, errors.New("web: replica config names a different DB than the fleet's")
	}
	if cfg.Tenants != nil && cfg.Tenants != primary.state.tenants {
		return nil, errors.New("web: replica config names a different tenant registry than the fleet's")
	}
	return assemble(cfg, primary.state), nil
}

func (s *Site) createSchema() error {
	if err := s.db.CreateTable("users",
		videodb.Column{Name: "username", Type: videodb.TString, Unique: true},
		videodb.Column{Name: "password_hash", Type: videodb.TString},
		videodb.Column{Name: "salt", Type: videodb.TString},
		videodb.Column{Name: "email", Type: videodb.TString},
		videodb.Column{Name: "verified", Type: videodb.TBool},
		videodb.Column{Name: "blocked", Type: videodb.TBool, Indexed: true},
		videodb.Column{Name: "admin", Type: videodb.TBool},
		videodb.Column{Name: "tenant", Type: videodb.TString},
	); err != nil {
		return err
	}
	if err := s.db.CreateTable("videos",
		videodb.Column{Name: "title", Type: videodb.TString},
		videodb.Column{Name: "description", Type: videodb.TString},
		videodb.Column{Name: "uploader_id", Type: videodb.TInt, Indexed: true},
		videodb.Column{Name: "duration_seconds", Type: videodb.TInt},
		videodb.Column{Name: "views", Type: videodb.TInt},
		videodb.Column{Name: "reports", Type: videodb.TInt},
		videodb.Column{Name: "renditions", Type: videodb.TString},
		videodb.Column{Name: "status", Type: videodb.TString},
		videodb.Column{Name: "seg_seconds", Type: videodb.TInt},
		videodb.Column{Name: "segments", Type: videodb.TInt},
		videodb.Column{Name: "tenant", Type: videodb.TString},
		videodb.Column{Name: "stored_bytes", Type: videodb.TInt},
	); err != nil {
		return err
	}
	return s.db.CreateTable("comments",
		videodb.Column{Name: "video_id", Type: videodb.TInt, Indexed: true},
		videodb.Column{Name: "user_id", Type: videodb.TInt},
		videodb.Column{Name: "text", Type: videodb.TString},
	)
}

// DB exposes the underlying database (experiments query it directly).
func (s *Site) DB() videodb.Store { return s.db }

// Index returns the live search index, shared by every fleet replica (the
// core re-indexes it via MapReduce).
func (s *Site) Index() *search.Index {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return s.state.index
}

// ReplaceIndex swaps in a freshly built index — the paper's "set Nutch
// searching engine [to] renew indexed material every certain time" (§III).
// In-flight queries finish on the old index; every replica sees the new one.
func (s *Site) ReplaceIndex(ix *search.Index) {
	if ix == nil {
		return
	}
	s.state.mu.Lock()
	s.state.index = ix
	s.state.mu.Unlock()
	s.state.dropRelated()
	s.reg.Counter("index_refreshes").Inc()
}

// Documents exports every published video as an indexable document, the
// corpus the periodic MapReduce re-index consumes: the rows reindex keeps in
// the live index, so a swapped-in index finds no more than the one it replaces.
func (s *Site) Documents() []search.Document {
	rows, _ := s.db.Scan("videos", published)
	docs := make([]search.Document, 0, len(rows))
	for _, row := range rows {
		if _, ok := row["id"].(int64); !ok {
			continue // drifted row: nothing indexable
		}
		docs = append(docs, documentOf(row))
	}
	return docs
}

// Metrics exposes this replica's counters (each fleet frontend keeps its
// own registry — per-replica latency is the scaling experiment's signal).
func (s *Site) Metrics() *metrics.Registry { return s.reg }

// EdgeStats snapshots this replica's edge-cache behaviour (core.Status and
// the delivery experiments read it).
func (s *Site) EdgeStats() edge.Stats { return s.edge.Stats() }

// Target returns the playback encoding spec.
func (s *Site) Target() video.Spec { return s.target }

// ServeHTTP implements http.Handler.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.mediaRoutes[mediaRoute(r)]; ok {
		h(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// ---- accounts & sessions ----

func hashPassword(password, salt string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

// randomToken mints session/verification tokens through the shared
// tenant.NewToken generator (one entropy source, one token shape, for API
// tokens and web sessions alike).
func randomToken() string { return tenant.NewToken() }

// register creates an account. Matching the paper's flow, ordinary accounts
// start unverified and must confirm via the emailed link (§IV-B/C); the
// admin is pre-verified.
func (s *Site) register(username, password, email string, admin bool) (int64, error) {
	if username == "" || password == "" {
		return 0, errors.New("web: username and password required")
	}
	salt := randomToken()
	id, err := s.db.Insert("users", videodb.Row{
		"username": username, "salt": salt,
		"password_hash": hashPassword(password, salt),
		"email":         email, "verified": admin, "admin": admin,
	})
	if err != nil {
		return 0, err
	}
	s.reg.Counter("users_registered").Inc()
	return id, nil
}

// verifyUser marks the account verified (the emailed confirmation link).
func (s *Site) verifyUser(id int64) error {
	return s.db.Update("users", id, videodb.Row{"verified": true})
}

// login checks credentials and returns a session token.
func (s *Site) login(username, password string) (string, error) {
	row, err := s.db.SelectOne("users", "username", username)
	if err != nil {
		return "", errors.New("web: unknown user or wrong password")
	}
	hash := rowString(row, "password_hash")
	if hash == "" || hashPassword(password, rowString(row, "salt")) != hash {
		return "", errors.New("web: unknown user or wrong password")
	}
	if !rowBool(row, "verified") {
		return "", errors.New("web: account not verified — follow the email link first")
	}
	if rowBool(row, "blocked") {
		return "", errors.New("web: account blocked by the administrator")
	}
	token := randomToken()
	s.state.mu.Lock()
	s.state.sessions[tenant.HashToken(token)] = rowInt(row, "id")
	s.state.mu.Unlock()
	s.reg.Counter("logins").Inc()
	return token, nil
}

func (s *Site) logout(token string) {
	s.state.mu.Lock()
	delete(s.state.sessions, tenant.HashToken(token))
	s.state.mu.Unlock()
}

// currentUser resolves the request's session cookie to a user row, or nil.
// Sessions live in the fleet state: a token minted by any replica
// authenticates on every replica.
func (s *Site) currentUser(r *http.Request) videodb.Row {
	c, err := r.Cookie("session")
	if err != nil {
		return nil
	}
	s.state.mu.Lock()
	id, ok := s.state.sessions[tenant.HashToken(c.Value)]
	s.state.mu.Unlock()
	if !ok {
		return nil
	}
	row, err := s.db.Get("users", id)
	if err != nil {
		return nil
	}
	return row
}
