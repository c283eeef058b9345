package tenant

import (
	"sync"
	"time"
)

// Kind names a metered resource in the usage ledger.
type Kind string

// Ledger event kinds. Amount units are seconds for *Seconds kinds and
// bytes for Bytes* kinds.
const (
	// KindVMSeconds meters virtual-clock seconds a tenant's VM spent in
	// the Running state (appended when the VM leaves Running).
	KindVMSeconds Kind = "vm_seconds"
	// KindBytesStored meters bytes durably published to HDFS, appended
	// exactly once at publish time with the exact stored size.
	KindBytesStored Kind = "bytes_stored"
	// KindBytesDeleted meters stored bytes released by deletion.
	KindBytesDeleted Kind = "bytes_deleted"
	// KindBytesEgressed meters response-body bytes served to viewers,
	// attributed to the tenant that owns the video (IaaS billing model).
	KindBytesEgressed Kind = "bytes_egressed"
	// KindTranscodeSeconds meters source-seconds of video converted,
	// appended once per successful publish. Source seconds (from the
	// container header) are deterministic, so experiments reconcile the
	// ledger against uploads exactly.
	KindTranscodeSeconds Kind = "transcode_seconds"
	// KindHDFSBytesWritten is an independent verification channel: bytes
	// observed by the HDFS client write path for contexts carrying this
	// tenant. E17 cross-checks it against KindBytesStored.
	KindHDFSBytesWritten Kind = "hdfs_bytes_written"
)

// Usage is a tenant's accumulated metered totals.
type Usage struct {
	VMSeconds        float64 `json:"vm_seconds"`
	BytesStored      float64 `json:"bytes_stored"`
	BytesDeleted     float64 `json:"bytes_deleted"`
	BytesEgressed    float64 `json:"bytes_egressed"`
	TranscodeSeconds float64 `json:"transcode_seconds"`
	HDFSBytesWritten float64 `json:"hdfs_bytes_written"`
	Events           int64   `json:"events"`
}

func (u *Usage) add(kind Kind, amount float64) {
	switch kind {
	case KindVMSeconds:
		u.VMSeconds += amount
	case KindBytesStored:
		u.BytesStored += amount
	case KindBytesDeleted:
		u.BytesDeleted += amount
	case KindBytesEgressed:
		u.BytesEgressed += amount
	case KindTranscodeSeconds:
		u.TranscodeSeconds += amount
	case KindHDFSBytesWritten:
		u.HDFSBytesWritten += amount
	}
	u.Events++
}

// Event is one append-only ledger entry.
type Event struct {
	Seq    int64     `json:"seq"`
	Tenant string    `json:"tenant"`
	Kind   Kind      `json:"kind"`
	Amount float64   `json:"amount"`
	At     time.Time `json:"at"`
}

// eventTail bounds the retained raw-event ring. Totals are exact forever;
// the raw tail exists for inspection and debugging, not billing.
const eventTail = 65536

// Ledger is the append-only usage ledger: exact running totals per tenant
// plus a bounded ring of the most recent raw events. Appends never block
// on snapshots and never allocate per-tenant state twice.
type Ledger struct {
	mu     sync.Mutex
	seq    int64
	totals map[string]*Usage
	ring   []Event
	next   int // ring write cursor
	full   bool
	clock  func() time.Time
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		totals: make(map[string]*Usage),
		ring:   make([]Event, 0, 1024),
		clock:  time.Now,
	}
}

// Append records one metered event. Amounts <= 0 are dropped (nothing was
// consumed), keeping totals monotone non-decreasing.
func (l *Ledger) Append(tenantName string, kind Kind, amount float64) {
	if amount <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	u := l.totals[tenantName]
	if u == nil {
		u = &Usage{}
		l.totals[tenantName] = u
	}
	u.add(kind, amount)
	ev := Event{Seq: l.seq, Tenant: tenantName, Kind: kind, Amount: amount, At: l.clock()}
	if len(l.ring) < eventTail && !l.full {
		l.ring = append(l.ring, ev)
		if len(l.ring) == eventTail {
			l.full = true
		}
		return
	}
	l.ring[l.next] = ev
	l.next = (l.next + 1) % len(l.ring)
}

// Snapshot returns a copy of every tenant's accumulated totals — the
// accountant view surfaced through core.Status().
func (l *Ledger) Snapshot() map[string]Usage {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Usage, len(l.totals))
	for name, u := range l.totals {
		out[name] = *u
	}
	return out
}

// Usage returns one tenant's accumulated totals.
func (l *Ledger) Usage(tenantName string) Usage {
	l.mu.Lock()
	defer l.mu.Unlock()
	if u := l.totals[tenantName]; u != nil {
		return *u
	}
	return Usage{}
}

// Events returns the retained raw-event tail in append order.
func (l *Ledger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]Event(nil), l.ring...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}
