// Package tenant turns the single-operator cloud into multi-tenant IaaS:
// a registry of named tenants with API tokens (crypto/rand generation,
// constant-time verification, scoped roles), hard per-tenant quotas
// enforced with check-and-reserve admission (never check-then-act), an
// append-only usage ledger with a snapshotting accountant, and a weighted
// start-time-fair queue that keeps one tenant's bulk burst from starving
// another's work.
//
// The package is dependency-free (stdlib only) so every layer — web,
// nebula, hdfs, core — can consume it without cycles. Identity is threaded
// through context.Context via WithContext/FromContext.
package tenant

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultName is the implicit tenant every unauthenticated request and
// session caller runs as. It is created by NewRegistry with no quota limits
// and weight 1; in the transcode queue it is a flow like any other.
const DefaultName = "default"

// maxTenants bounds the registry so per-tenant metric label cardinality is
// bounded by construction: dashboards can enumerate tenants without a
// cardinality explosion.
const maxTenants = 64

// Role scopes what a token may do.
type Role uint8

// Token roles, weakest first.
const (
	// RoleReader may read: list VMs, stream video, fetch usage.
	RoleReader Role = 1 + iota
	// RoleWriter may additionally mutate the tenant's own resources:
	// upload, delete own videos, boot and shut down own VMs.
	RoleWriter
	// RoleAdmin is RoleWriter plus tenant administration. A RoleAdmin
	// token of the default tenant is the cloud operator: it sees every
	// tenant's resources and may drive host-level operations.
	RoleAdmin
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleReader:
		return "reader"
	case RoleWriter:
		return "writer"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// CanWrite reports whether the role may mutate resources.
func (r Role) CanWrite() bool { return r >= RoleWriter }

// Sentinel errors. Quota and throttle failures carry typed wrappers
// (QuotaError, ThrottleError) that errors.Is-match these sentinels and
// carry a Retry-After hint for the HTTP 429 mapping.
var (
	ErrQuotaExceeded = errors.New("tenant: quota exceeded")
	ErrThrottled     = errors.New("tenant: fair-share throttled")
	ErrBadToken      = errors.New("tenant: unknown or revoked token")
	ErrQueueClosed   = errors.New("tenant: queue closed")
)

// QuotaError reports a check-and-reserve admission failure.
type QuotaError struct {
	// Tenant and Resource identify what ran out ("vms", "storage_bytes",
	// "transcode_seconds").
	Tenant, Resource string
	// Used and Limit are the reservation level and cap at denial time.
	Used, Limit float64
	// RetryAfter hints when retrying may succeed (the window remainder
	// for rate quotas, a fixed backoff for capacity quotas).
	RetryAfter time.Duration
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %s: %s quota exceeded (%.6g of %.6g used)",
		e.Tenant, e.Resource, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrQuotaExceeded) hold.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// ThrottleError reports a weighted-fair-queue rejection: the flow's backlog
// reached its fair share of the queue, so the push was refused instead of
// letting the flow crowd everyone else out. The work is not lost — the
// caller retries after RetryAfter (HTTP 429 + Retry-After).
type ThrottleError struct {
	Flow           string
	Backlog, Share int
	RetryAfter     time.Duration
}

// Error implements error.
func (e *ThrottleError) Error() string {
	return fmt.Sprintf("tenant %s: transcode backlog %d at fair share %d — retry in %v",
		e.Flow, e.Backlog, e.Share, e.RetryAfter)
}

// Is makes errors.Is(err, ErrThrottled) hold.
func (e *ThrottleError) Is(target error) bool { return target == ErrThrottled }

// RetryAfterSeconds extracts the Retry-After hint (in whole seconds, >= 1)
// from a quota or throttle error; ok is false for other errors.
func RetryAfterSeconds(err error) (secs int, ok bool) {
	var d time.Duration
	var qe *QuotaError
	var te *ThrottleError
	switch {
	case errors.As(err, &qe):
		d = qe.RetryAfter
	case errors.As(err, &te):
		d = te.RetryAfter
	default:
		return 0, false
	}
	secs = int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs, true
}

// Quota caps a tenant's resource reservations. Zero fields are unlimited.
type Quota struct {
	// MaxVMs caps concurrently admitted VM instances.
	MaxVMs int
	// MaxStorageBytes caps HDFS bytes reserved for stored objects.
	MaxStorageBytes int64
	// TranscodeSecondsPerHour caps source-seconds of video admitted for
	// conversion per rolling one-hour window.
	TranscodeSecondsPerHour float64
}

// transcodeWindow is the rate-quota accounting window.
const transcodeWindow = time.Hour

// vmRetryAfter is the Retry-After hint for capacity (non-windowed) quotas:
// capacity frees when the tenant releases something, not on a schedule.
const vmRetryAfter = 30 * time.Second

// Tenant is one registered tenant: identity, scheduling weight, quota
// reservations, and abuse counters. All reservation methods are
// check-and-reserve under one mutex — concurrent admissions at the quota
// boundary can never overshoot the limit.
type Tenant struct {
	name   string
	weight int
	reg    *Registry

	mu          sync.Mutex
	quota       Quota
	vms         int
	storedBytes int64
	windowStart time.Time
	windowSecs  float64

	// Peaks record the high-water reservation per resource; experiments
	// assert peak <= limit to prove overshoot is exactly zero.
	peakVMs    int
	peakBytes  int64
	peakWindow float64

	requests     atomic.Int64
	quotaDenials atomic.Int64
	throttles    atomic.Int64
}

// Name returns the tenant's unique name.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's fair-share scheduling weight.
func (t *Tenant) Weight() int { return t.weight }

// IsDefault reports whether this is the implicit default tenant.
func (t *Tenant) IsDefault() bool { return t.name == DefaultName }

// Quota returns the tenant's current quota.
func (t *Tenant) Quota() Quota {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.quota
}

// ReserveVM admits one VM instance or fails with a QuotaError. Admission is
// atomic: the slot is held from the moment this returns nil until
// ReleaseVM, so racing boots cannot overshoot MaxVMs.
func (t *Tenant) ReserveVM() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quota.MaxVMs > 0 && t.vms+1 > t.quota.MaxVMs {
		t.quotaDenials.Add(1)
		return &QuotaError{Tenant: t.name, Resource: "vms",
			Used: float64(t.vms), Limit: float64(t.quota.MaxVMs), RetryAfter: vmRetryAfter}
	}
	t.vms++
	if t.vms > t.peakVMs {
		t.peakVMs = t.vms
	}
	return nil
}

// ReleaseVM frees one admitted VM slot.
func (t *Tenant) ReleaseVM() {
	t.mu.Lock()
	if t.vms > 0 {
		t.vms--
	}
	t.mu.Unlock()
}

// ReserveBytes admits n bytes of storage or fails with a QuotaError.
func (t *Tenant) ReserveBytes(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reserveBytesLocked(n)
}

func (t *Tenant) reserveBytesLocked(n int64) error {
	if n < 0 {
		n = 0
	}
	if t.quota.MaxStorageBytes > 0 && t.storedBytes+n > t.quota.MaxStorageBytes {
		t.quotaDenials.Add(1)
		return &QuotaError{Tenant: t.name, Resource: "storage_bytes",
			Used: float64(t.storedBytes), Limit: float64(t.quota.MaxStorageBytes), RetryAfter: vmRetryAfter}
	}
	t.storedBytes += n
	if t.storedBytes > t.peakBytes {
		t.peakBytes = t.storedBytes
	}
	return nil
}

// ReleaseBytes frees n reserved storage bytes.
func (t *Tenant) ReleaseBytes(n int64) {
	t.mu.Lock()
	if n > 0 {
		t.storedBytes -= n
		if t.storedBytes < 0 {
			t.storedBytes = 0
		}
	}
	t.mu.Unlock()
}

// AdjustBytes atomically replaces an old reservation with a new one — the
// publish-time correction from the admission-time estimate to the exact
// stored size. On failure the old reservation is kept.
func (t *Tenant) AdjustBytes(old, new int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old > 0 {
		t.storedBytes -= old
		if t.storedBytes < 0 {
			t.storedBytes = 0
		}
	}
	if err := t.reserveBytesLocked(new); err != nil {
		t.storedBytes += old // restore: admission keeps its estimate
		return err
	}
	return nil
}

// ReserveTranscode admits secs source-seconds of conversion against the
// rolling hourly window, or fails with a QuotaError whose RetryAfter is the
// window remainder.
func (t *Tenant) ReserveTranscode(secs float64) error {
	if secs < 0 {
		secs = 0
	}
	now := t.reg.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.windowStart.IsZero() || now.Sub(t.windowStart) >= transcodeWindow {
		t.windowStart, t.windowSecs = now, 0
	}
	if lim := t.quota.TranscodeSecondsPerHour; lim > 0 && t.windowSecs+secs > lim {
		t.quotaDenials.Add(1)
		return &QuotaError{Tenant: t.name, Resource: "transcode_seconds",
			Used: t.windowSecs, Limit: lim,
			RetryAfter: t.windowStart.Add(transcodeWindow).Sub(now)}
	}
	t.windowSecs += secs
	if t.windowSecs > t.peakWindow {
		t.peakWindow = t.windowSecs
	}
	return nil
}

// ReleaseTranscode returns secs to the current window (a reservation whose
// conversion failed). A reservation from an already-rotated window is gone;
// releasing it is a no-op.
func (t *Tenant) ReleaseTranscode(secs float64) {
	now := t.reg.now()
	t.mu.Lock()
	if !t.windowStart.IsZero() && now.Sub(t.windowStart) < transcodeWindow && secs > 0 {
		t.windowSecs -= secs
		if t.windowSecs < 0 {
			t.windowSecs = 0
		}
	}
	t.mu.Unlock()
}

// CountThrottle records a fair-queue throttle against the tenant.
func (t *Tenant) CountThrottle() { t.throttles.Add(1) }

// Reservations is a point-in-time view of a tenant's quota state.
type Reservations struct {
	VMs                 int
	StorageBytes        int64
	TranscodeWindowSecs float64
	PeakVMs             int
	PeakStorageBytes    int64
	PeakTranscodeWindow float64
	Requests            int64
	QuotaDenials        int64
	Throttles           int64
}

// Reservations snapshots the tenant's reservation and abuse counters.
func (t *Tenant) Reservations() Reservations {
	t.mu.Lock()
	r := Reservations{
		VMs: t.vms, StorageBytes: t.storedBytes, TranscodeWindowSecs: t.windowSecs,
		PeakVMs: t.peakVMs, PeakStorageBytes: t.peakBytes, PeakTranscodeWindow: t.peakWindow,
	}
	t.mu.Unlock()
	r.Requests = t.requests.Load()
	r.QuotaDenials = t.quotaDenials.Load()
	r.Throttles = t.throttles.Load()
	return r
}

// Overshoot returns how far the tenant's peak reservations ever exceeded
// its limits. A correct check-and-reserve admission path returns all zeros
// no matter how hard the quota boundary is hammered.
func (t *Tenant) Overshoot() (vms int, bytes int64, transcodeSecs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quota.MaxVMs > 0 && t.peakVMs > t.quota.MaxVMs {
		vms = t.peakVMs - t.quota.MaxVMs
	}
	if t.quota.MaxStorageBytes > 0 && t.peakBytes > t.quota.MaxStorageBytes {
		bytes = t.peakBytes - t.quota.MaxStorageBytes
	}
	if lim := t.quota.TranscodeSecondsPerHour; lim > 0 && t.peakWindow > lim {
		transcodeSecs = t.peakWindow - lim
	}
	return vms, bytes, transcodeSecs
}

// grant is what a token resolves to.
type grant struct {
	t    *Tenant
	role Role
}

// Registry is the tenant directory: named tenants, their tokens, and the
// shared usage ledger. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	order   []string
	tokens  map[[32]byte]grant
	ledger  *Ledger
	clock   func() time.Time
}

// NewRegistry builds a registry holding only the default tenant (weight 1,
// no quota limits).
func NewRegistry() *Registry {
	r := &Registry{
		tenants: make(map[string]*Tenant),
		tokens:  make(map[[32]byte]grant),
		ledger:  NewLedger(),
		clock:   time.Now,
	}
	def := &Tenant{name: DefaultName, weight: 1, reg: r}
	r.tenants[DefaultName] = def
	r.order = append(r.order, DefaultName)
	return r
}

func (r *Registry) now() time.Time {
	r.mu.Lock()
	fn := r.clock
	r.mu.Unlock()
	return fn()
}

// Create registers a tenant. Weight < 1 is normalised to 1. The registry is
// capped at maxTenants so per-tenant label cardinality stays bounded.
func (r *Registry) Create(name string, weight int, q Quota) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("tenant: empty name")
	}
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[name]; dup {
		return nil, fmt.Errorf("tenant: %q already exists", name)
	}
	if len(r.tenants) >= maxTenants {
		return nil, fmt.Errorf("tenant: registry full (%d tenants)", maxTenants)
	}
	t := &Tenant{name: name, weight: weight, reg: r, quota: q}
	r.tenants[name] = t
	r.order = append(r.order, name)
	return t, nil
}

// Get returns the named tenant, or nil. The empty name resolves to the
// default tenant (legacy rows carry no tenant column).
func (r *Registry) Get(name string) *Tenant {
	if name == "" {
		name = DefaultName
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[name]
}

// Default returns the implicit default tenant.
func (r *Registry) Default() *Tenant { return r.Get(DefaultName) }

// Tenants returns every tenant in creation order.
func (r *Registry) Tenants() []*Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tenant, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.tenants[name])
	}
	return out
}

// Ledger returns the registry's shared usage ledger.
func (r *Registry) Ledger() *Ledger { return r.ledger }

// Meter appends a usage event for the named tenant.
func (r *Registry) Meter(tenantName string, kind Kind, amount float64) {
	if tenantName == "" {
		tenantName = DefaultName
	}
	r.ledger.Append(tenantName, kind, amount)
}

// IssueToken mints an API token for the named tenant. The cleartext token
// is returned exactly once; the registry stores only its SHA-256 hash, so a
// registry dump cannot be replayed as credentials.
func (r *Registry) IssueToken(tenantName string, role Role) (string, error) {
	if role < RoleReader || role > RoleAdmin {
		return "", fmt.Errorf("tenant: invalid role %d", role)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[tenantName]
	if !ok {
		return "", fmt.Errorf("tenant: no tenant %q", tenantName)
	}
	tok := NewToken()
	r.tokens[HashToken(tok)] = grant{t: t, role: role}
	return tok, nil
}

// Revoke invalidates a token, reporting whether it existed.
func (r *Registry) Revoke(token string) bool {
	h := HashToken(token)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tokens[h]
	delete(r.tokens, h)
	return ok
}

// Authenticate resolves a presented token in constant time with respect to
// the stored credentials: the token is hashed and the digest used as the
// lookup key, so timing reveals nothing about any stored token — an
// attacker learns at most about the hash of their own guess, which SHA-256
// preimage resistance makes useless. The hot path is <= 2 allocs/op
// (gated by TestAllocAuthenticate, wired into `make alloccheck`).
func (r *Registry) Authenticate(token string) (*Tenant, Role, error) {
	h := sha256.Sum256([]byte(token))
	r.mu.Lock()
	g, ok := r.tokens[h]
	r.mu.Unlock()
	if !ok {
		return nil, 0, ErrBadToken
	}
	g.t.requests.Add(1)
	return g.t, g.role, nil
}

// NewToken returns a fresh 256-bit random token as 64 hex characters. It is
// the shared generator for API tokens, web session cookies, verification
// links, and password salts.
func NewToken() string {
	var b [32]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("tenant: entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// HashToken digests a token for storage or map lookup. Comparing digests by
// map key is the constant-time comparison: equality tests run on the
// fixed-width hash, never on the secret itself.
func HashToken(token string) [32]byte { return sha256.Sum256([]byte(token)) }

// Status is one tenant's row in a dashboard: identity, reservations, and
// accumulated usage from the ledger.
type Status struct {
	Name   string
	Weight int
	Quota  Quota
	Res    Reservations
	Usage  Usage
}

// StatusAll snapshots every tenant (creation order) joined with its ledger
// usage — the accountant view core.Status().Tenants surfaces.
func (r *Registry) StatusAll() []Status {
	tenants := r.Tenants()
	usage := r.ledger.Snapshot()
	out := make([]Status, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, Status{
			Name: t.name, Weight: t.weight, Quota: t.Quota(),
			Res: t.Reservations(), Usage: usage[t.name],
		})
	}
	return out
}

// ---- context threading ----

type ctxKey struct{}

type ctxIdentity struct {
	t    *Tenant
	role Role
}

// WithContext attaches a tenant identity to ctx. It survives across the
// layers that thread ctx (web → queue → farm → HDFS → nebula); note that
// trace.Reparent drops context values, so async hops re-attach explicitly.
func WithContext(ctx context.Context, t *Tenant, role Role) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxIdentity{t: t, role: role})
}

// FromContext returns the tenant identity attached to ctx, if any.
func FromContext(ctx context.Context) (*Tenant, Role, bool) {
	id, ok := ctx.Value(ctxKey{}).(ctxIdentity)
	if !ok {
		return nil, 0, false
	}
	return id.t, id.role, true
}
