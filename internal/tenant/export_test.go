package tenant

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"time"
)

// Backlog returns the named flow's queued-item count.
func (q *FairQueue[T]) Backlog(flowName string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if f := q.flows[flowName]; f != nil {
		return len(f.entries)
	}
	return 0
}

// Throttles returns how many pushes were refused with a ThrottleError.
func (q *FairQueue[T]) Throttles() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.throttles
}

// Seq returns the number of events ever appended.
func (l *Ledger) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SetClock injects a time source (tests drive quota windows with it).
func (r *Registry) SetClock(fn func() time.Time) {
	r.mu.Lock()
	r.clock = fn
	r.mu.Unlock()
	r.ledger.setClock(fn)
}
func (l *Ledger) setClock(fn func() time.Time) {
	l.mu.Lock()
	l.clock = fn
	l.mu.Unlock()
}
