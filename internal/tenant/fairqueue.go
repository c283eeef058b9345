package tenant

import (
	"sync"
	"time"
)

// throttleRetryAfter hints when a throttled flow should retry: by then the
// workers have usually drained at least one of its queued jobs.
const throttleRetryAfter = 2 * time.Second

// fqEntry is one queued item with its start-time-fair finish tag.
type fqEntry[T any] struct {
	item   T
	finish float64
}

// fqFlow is one tenant's FIFO inside the fair queue.
type fqFlow[T any] struct {
	name       string
	weight     int
	entries    []fqEntry[T]
	lastFinish float64
}

// FairQueue is a bounded multi-flow queue with start-time fair queuing
// (SFQ) dispatch: each pushed item gets a virtual finish tag
//
//	finish = max(virt, flow.lastFinish) + cost/weight
//
// and Pop always takes the earliest-finishing head across flows, so
// service interleaves proportionally to weight no matter how deep one
// flow's backlog runs.
//
// Backpressure is one contract for every flow, the default tenant's
// included: a flow whose own backlog has reached its fair share of the
// queue capacity gets an immediate ThrottleError (mapped to HTTP 429 +
// Retry-After) instead of being allowed to crowd out other flows; a flow
// under its share blocks only when the queue is globally full of other
// flows' under-share work. With no other flow backlogged the share is the
// whole capacity, so a lone flow is throttled exactly when the queue is
// full.
type FairQueue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond

	capacity int
	size     int
	virt     float64
	flows    map[string]*fqFlow[T]
	closed   bool

	throttles int64
}

// NewFairQueue builds a fair queue holding at most capacity items.
func NewFairQueue[T any](capacity int) *FairQueue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &FairQueue[T]{capacity: capacity, flows: make(map[string]*fqFlow[T])}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Push enqueues item on the named flow. cost is the item's service cost in
// arbitrary consistent units (e.g. source video seconds); larger costs push
// the flow's next turn further out. weight and cost are floored at 1. See
// the type comment for the blocking vs throttling contract. Returns
// ErrQueueClosed after Close.
func (q *FairQueue[T]) Push(flowName string, weight int, cost float64, item T) error {
	if weight < 1 {
		weight = 1
	}
	if cost <= 0 {
		cost = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return ErrQueueClosed
		}
		f := q.flows[flowName]
		if f != nil && len(f.entries) >= q.shareLocked(flowName, weight) {
			q.throttles++
			return &ThrottleError{
				Flow:       flowName,
				Backlog:    len(f.entries),
				Share:      q.shareLocked(flowName, weight),
				RetryAfter: throttleRetryAfter,
			}
		}
		if q.size < q.capacity {
			break
		}
		q.notFull.Wait()
	}
	f := q.flows[flowName]
	if f == nil {
		f = &fqFlow[T]{name: flowName, weight: weight}
		q.flows[flowName] = f
	}
	f.weight = weight
	start := f.lastFinish
	if q.virt > start {
		start = q.virt
	}
	finish := start + cost/float64(weight)
	f.lastFinish = finish
	f.entries = append(f.entries, fqEntry[T]{item: item, finish: finish})
	q.size++
	q.notEmpty.Signal()
	return nil
}

// shareLocked computes a flow's fair share of the queue capacity:
// capacity * weight / (total weight of currently backlogged flows,
// counting the pusher once), floored at 1 so every tenant can always have
// at least one job queued.
func (q *FairQueue[T]) shareLocked(flowName string, weight int) int {
	active, self := 0, false
	for name, f := range q.flows {
		if len(f.entries) > 0 {
			active += f.weight
			if name == flowName {
				self = true
			}
		}
	}
	if !self {
		active += weight
	}
	share := q.capacity * weight / active
	if share < 1 {
		share = 1
	}
	return share
}

// Pop dequeues the earliest-finishing head across flows, blocking until an
// item is available. After Close it drains remaining items, then returns
// ok=false.
func (q *FairQueue[T]) Pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.notEmpty.Wait()
	}
	var best *fqFlow[T]
	for _, f := range q.flows {
		if len(f.entries) == 0 {
			continue
		}
		if best == nil ||
			f.entries[0].finish < best.entries[0].finish ||
			(f.entries[0].finish == best.entries[0].finish && f.name < best.name) {
			best = f
		}
	}
	head := best.entries[0]
	copy(best.entries, best.entries[1:])
	best.entries = best.entries[:len(best.entries)-1]
	if len(best.entries) == 0 {
		// Idle flows are pruned so long-lived queues do not accumulate
		// per-tenant state; lastFinish restarts from virt on return,
		// which SFQ tolerates (virt only moves forward).
		delete(q.flows, best.name)
	}
	if head.finish > q.virt {
		q.virt = head.finish
	}
	q.size--
	q.notFull.Signal()
	return head.item, true
}

// Close wakes all blocked pushers (they fail with ErrQueueClosed) and lets
// poppers drain what remains.
func (q *FairQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Len returns the number of queued items.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Cap returns the queue capacity.
func (q *FairQueue[T]) Cap() int { return q.capacity }

// Full reports whether the queue is at capacity.
func (q *FairQueue[T]) Full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size >= q.capacity
}
