package web

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"videocloud/internal/metrics"
	"videocloud/internal/tenant"
	"videocloud/internal/videodb"
)

// Multi-tenant plumbing for the web tier: Bearer-token resolution (the
// middleware attaches the tenant to the request context), the principal
// abstraction unifying session users and API tokens, quota admission for
// uploads, egress attribution, and bounded per-tenant instruments.

// errNeedAuth maps to 401 (no credentials at all); errForbidden maps to
// 403 (credentials that don't authorize this object).
var (
	errNeedAuth  = errors.New("web: authentication required")
	errForbidden = errors.New("web: not the uploader")
)

// principal is whoever a request acts as: either a session user (cookie)
// or an API token (Authorization: Bearer, resolved by the middleware into
// the request context). Every principal belongs to exactly one tenant;
// session users with no tenant column belong to the default tenant.
type principal struct {
	userID int64 // 0 for token-only principals
	ten    *tenant.Tenant
	role   tenant.Role
}

// tenantName returns the principal's tenant name (default when unset).
func (p *principal) tenantName() string {
	if p.ten != nil {
		return p.ten.Name()
	}
	return tenant.DefaultName
}

// isOperator reports whether the principal is the cloud operator: an admin
// of the default tenant, who sees and may act on every tenant's resources.
func (p *principal) isOperator() bool {
	return p.role == tenant.RoleAdmin && (p.ten == nil || p.ten.IsDefault())
}

// principal resolves the request's identity. An API token attached to the
// context by the middleware wins over a session cookie; with neither, the
// request is anonymous (nil).
func (s *Site) principal(r *http.Request) *principal {
	if ten, role, ok := tenant.FromContext(r.Context()); ok {
		return &principal{ten: ten, role: role}
	}
	user := s.currentUser(r)
	if user == nil {
		return nil
	}
	role := tenant.RoleWriter
	if rowBool(user, "admin") {
		role = tenant.RoleAdmin
	}
	tname, _ := user["tenant"].(string) // tolerant: pre-tenant rows have no column
	return &principal{userID: rowInt(user, "id"), ten: s.tenants.Get(tname), role: role}
}

// owns reports whether p may mutate the video row: the cloud operator may
// always; otherwise the row must belong to p's tenant, and within a tenant
// a session user must be the uploader (or a tenant admin) while an API
// token owns everything in its tenant's namespace.
func (p *principal) owns(row videodb.Row) bool {
	if p.isOperator() {
		return true
	}
	rowTenant, _ := row["tenant"].(string)
	if rowTenant == "" {
		rowTenant = tenant.DefaultName
	}
	if rowTenant != p.tenantName() {
		return false
	}
	if p.userID != 0 {
		return row["uploader_id"] == p.userID || p.role == tenant.RoleAdmin
	}
	return true
}

// writeTenantError maps tenant-layer failures onto HTTP: quota and
// fair-share throttles become 429 with a Retry-After hint (the caller
// should back off and retry — the work is refused, not lost), bad tokens
// 401, anything else 400.
func (s *Site) writeTenantError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, tenant.ErrQuotaExceeded), errors.Is(err, tenant.ErrThrottled):
		if secs, ok := tenant.RetryAfterSeconds(err); ok {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		s.reg.Counter("http_429").Inc()
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return true
	case errors.Is(err, tenant.ErrBadToken):
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return true
	}
	return false
}

// admission carries a publisher's quota reservations from intake to publish:
// estBytes storage (corrected to the exact stored size before any write)
// and srcSecs of the hourly transcode window, both held against ten (never
// nil: admitUpload resolves anonymous callers to the default tenant).
type admission struct {
	ten      *tenant.Tenant
	estBytes int64
	srcSecs  float64
}

// release returns every reservation (a failed upload consumed nothing).
func (a *admission) release() {
	a.ten.ReleaseBytes(a.estBytes)
	a.ten.ReleaseTranscode(a.srcSecs)
	a.estBytes, a.srcSecs = 0, 0
}

// estimateStoredBytes bounds an upload's durable footprint from its source
// size: every rendition is stored once, as segments, with per-object header
// slack. The estimate is corrected to the exact byte count before anything
// is written, so what HDFS holds is never more than what is reserved.
func (s *Site) estimateStoredBytes(srcBytes int) int64 {
	return (int64(srcBytes) + 64<<10) * int64(len(s.specs))
}

// admitUpload runs check-and-reserve quota admission for an upload or a live
// push by ten (default when nil: an anonymous caller). Whoever holds the
// returned admission releases it on failure; on publish the byte reservation
// is corrected to the exact stored size and kept (it is the tenant's stored
// usage).
func (s *Site) admitUpload(ten *tenant.Tenant, srcBytes int, srcSecs int) (*admission, error) {
	if ten == nil {
		ten = s.tenants.Default()
	}
	a := &admission{ten: ten, estBytes: s.estimateStoredBytes(srcBytes), srcSecs: float64(srcSecs)}
	if err := ten.ReserveTranscode(a.srcSecs); err != nil {
		s.tenantCounter("quota_denials", ten.Name()).Inc()
		return nil, err
	}
	if err := ten.ReserveBytes(a.estBytes); err != nil {
		ten.ReleaseTranscode(a.srcSecs)
		s.tenantCounter("quota_denials", ten.Name()).Inc()
		return nil, err
	}
	return a, nil
}

// maxTenantLabels bounds per-tenant instrument cardinality on this
// replica; tenants beyond it share an "other" label so a hostile token
// churn cannot grow the registry without bound.
const maxTenantLabels = 32

// tenantCounterKey names a per-tenant instrument in a replica's map: a
// comparable struct, so a metered response builds no key string.
type tenantCounterKey struct{ what, tenant string }

// tenantCounter returns the bounded per-tenant instrument
// "tenant_<name>_<what>".
func (s *Site) tenantCounter(what, tenantName string) *metrics.Counter {
	key := tenantCounterKey{what, tenantName}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tenantCounters == nil {
		s.tenantCounters = make(map[tenantCounterKey]*metrics.Counter)
	}
	if c, ok := s.tenantCounters[key]; ok {
		return c
	}
	if len(s.tenantCounters) >= maxTenantLabels {
		key.tenant = "other"
		if c, ok := s.tenantCounters[key]; ok {
			return c
		}
	}
	c := s.reg.Counter(fmt.Sprintf("tenant_%s_%s", key.tenant, what))
	s.tenantCounters[key] = c
	return c
}

// tenantCol is the one column ownerTenant reads of a title.
var tenantCol = []string{"tenant"}

// ownerTenant resolves which tenant owns video id, for egress attribution.
// The answer is cached per replica so the warm segment path (edge-cache
// hit) costs one map lookup, not a database read; unpublish drops the entry.
func (s *Site) ownerTenant(id int64) string {
	s.tmu.Lock()
	name, ok := s.videoTenant[id]
	s.tmu.Unlock()
	if ok {
		return name
	}
	if vals, err := s.db.Project("videos", id, tenantCol); err == nil {
		name, _ = vals[0].(string) // "" is the default tenant (meterEgress)
	}
	s.tmu.Lock()
	if len(s.videoTenant) > 1<<16 { // bound the attribution cache
		s.videoTenant = make(map[int64]string)
	}
	s.videoTenant[id] = name
	s.tmu.Unlock()
	return name
}

// meterEgress attributes n response-body bytes to the video owner's tenant
// in the usage ledger (the IaaS billing model: the account that published
// the content pays for its delivery).
func (s *Site) meterEgress(tenantName string, n int64) {
	if n <= 0 {
		return
	}
	if tenantName == "" {
		tenantName = tenant.DefaultName
	}
	s.tenants.Meter(tenantName, tenant.KindBytesEgressed, float64(n))
	s.tenantCounter("egress_bytes", tenantName).Add(n)
}

// resolveBearer authenticates an Authorization: Bearer header against the
// tenant registry. ok=false with a written response means the request was
// rejected (401); a request without the header passes through untouched.
func (s *Site) resolveBearer(w http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	auth := r.Header.Get("Authorization")
	if auth == "" {
		return r, true
	}
	tok, found := strings.CutPrefix(auth, "Bearer ")
	if !found {
		http.Error(w, "unsupported Authorization scheme (use Bearer)", http.StatusUnauthorized)
		return r, false
	}
	ten, role, err := s.tenants.Authenticate(tok)
	if err != nil {
		s.reg.Counter("auth_failures").Inc()
		http.Error(w, "invalid or revoked API token", http.StatusUnauthorized)
		return r, false
	}
	s.tenantCounter("requests", ten.Name()).Inc()
	return r.WithContext(tenant.WithContext(r.Context(), ten, role)), true
}
