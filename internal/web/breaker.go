package web

import (
	"sync"
	"time"

	"videocloud/internal/metrics"
)

// Breaker states. Gauge values are chosen so "bigger is worse".
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// The breaker trips after breakerThreshold consecutive storage failures on
// the streaming path and stays open for breakerCooldown before it probes.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// breaker is a three-state circuit breaker guarding the HDFS data path of
// the streaming tier. When the store fails repeatedly (DataNodes down,
// NameNode unreachable), the breaker opens and /stream requests fail fast
// with 503 + Retry-After instead of stacking up on a dead backend — the
// metadata pages (home, watch, search) keep serving from the database, so
// the site degrades instead of collapsing. After a cooldown one trial
// request probes the store; success re-closes the breaker.
type breaker struct {
	now func() time.Time // injectable for tests

	opened   *metrics.Counter // closed/half-open -> open transitions
	reclosed *metrics.Counter // half-open -> closed recoveries
	rejected *metrics.Counter // requests short-circuited while open
	state    *metrics.Gauge

	mu       sync.Mutex
	st       int
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open trial is in flight
}

func newBreaker(reg *metrics.Registry) *breaker {
	return &breaker{
		now:      time.Now,
		opened:   reg.Counter("breaker_opened"),
		reclosed: reg.Counter("breaker_reclosed"),
		rejected: reg.Counter("breaker_rejected"),
		state:    reg.Gauge("breaker_state"),
	}
}

// Allow reports whether the protected call may proceed. While open it fails
// fast until the cooldown elapses, then admits exactly one probe at a time.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < breakerCooldown {
			b.rejected.Inc()
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open: one trial at a time
		if b.probing {
			b.rejected.Inc()
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a healthy call, re-closing a half-open breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.st != breakerClosed {
		b.setState(breakerClosed)
		b.reclosed.Inc()
	}
}

// Failure records a failed call: enough consecutive ones trip the breaker,
// and a failed half-open probe re-opens it for another cooldown.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.st {
	case breakerClosed:
		b.failures++
		if b.failures >= breakerThreshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	case breakerOpen:
		// A straggler that was admitted before the trip; already open.
	}
}

// trip transitions to open. Callers hold b.mu.
func (b *breaker) trip() {
	b.setState(breakerOpen)
	b.openedAt = b.now()
	b.failures = 0
	b.opened.Inc()
}

func (b *breaker) setState(st int) {
	b.st = st
	b.state.Set(int64(st))
}

// RetryAfterSeconds advises clients when the next attempt could succeed:
// the remaining cooldown, at least one second.
func (b *breaker) RetryAfterSeconds() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st != breakerOpen {
		return 1
	}
	left := breakerCooldown - b.now().Sub(b.openedAt)
	secs := int((left + time.Second - 1) / time.Second)
	return max(secs, 1)
}

// BreakerStats summarises the HDFS breaker for core.Status.
type BreakerStats struct {
	// State is "closed", "half-open" or "open".
	State string
	// Opened counts trips, Reclosed recoveries, Rejected requests
	// short-circuited with 503 while open.
	Opened, Reclosed, Rejected int64
}

// BreakerStatsOf summarises the HDFS breakers of sites: counters summed, the
// worst state reported (open over half-open over closed). Pass one replica
// for its own breaker.
func BreakerStatsOf(sites ...*Site) BreakerStats {
	var st BreakerStats
	worst := breakerClosed
	for _, s := range sites {
		b := s.hdfsBreaker
		b.mu.Lock()
		worst = max(worst, b.st)
		b.mu.Unlock()
		st.Opened += b.opened.Value()
		st.Reclosed += b.reclosed.Value()
		st.Rejected += b.rejected.Value()
	}
	st.State = [...]string{breakerClosed: "closed", breakerHalfOpen: "half-open", breakerOpen: "open"}[worst]
	return st
}
