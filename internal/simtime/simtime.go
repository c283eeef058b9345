// Package simtime provides a deterministic discrete-event simulation kernel.
//
// Hardware-bound behaviour in videocloud (VM memory copies during live
// migration, network transfers, disk provisioning) is simulated on a virtual
// clock so that migrating an 8 GB VM costs microseconds of wall time. The
// kernel is callback based: components schedule closures at virtual times and
// the simulator executes them in (time, sequence) order, which makes every
// run reproducible bit for bit.
package simtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. It can be cancelled until it has fired.
type Event struct {
	at       time.Duration
	seq      uint64
	fn       func()
	index    int // heap index, -1 when not queued
	canceled bool
	every    time.Duration // >0 for periodic events
	sim      *Simulator
}

// Cancel removes the event from the queue. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the event
// was still pending.
func (e *Event) Cancel() bool {
	if e == nil || e.canceled || e.index < 0 {
		if e != nil {
			e.canceled = true
		}
		return false
	}
	e.canceled = true
	heap.Remove(&e.sim.queue, e.index)
	return true
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all components driven by one Simulator must run on the
// goroutine that calls Run/Step. This is deliberate: determinism is a design
// requirement (DESIGN.md §5.2).
type Simulator struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fn runs at the current time, after already-queued events for that
// time). The returned Event may be cancelled.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	return s.scheduleAt(s.now+delay, fn, 0)
}

// Every runs fn every period of virtual time, starting one period from now,
// until the returned Event is cancelled.
func (s *Simulator) Every(period time.Duration, fn func()) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: Every with non-positive period %v", period))
	}
	return s.scheduleAt(s.now+period, fn, period)
}

func (s *Simulator) scheduleAt(at time.Duration, fn func(), every time.Duration) *Event {
	s.seq++
	ev := &Event{at: at, seq: s.seq, fn: fn, every: every, sim: s}
	heap.Push(&s.queue, ev)
	return ev
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*Event)
		if ev.canceled {
			continue
		}
		s.now = ev.at
		if ev.every > 0 {
			// Re-arm before running so fn can cancel its own event.
			ev.at += ev.every
			ev.canceled = false
			heap.Push(&s.queue, ev)
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled later stay queued.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.queue.Len() > 0 {
		next := s.queue[0]
		if next.canceled {
			heap.Pop(&s.queue)
			continue
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events within the next d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// RunWhile executes events while cond() is true and events remain. It is the
// natural way to drive a state machine to completion: RunWhile(func() bool {
// return !migration.Done() }).
func (s *Simulator) RunWhile(cond func() bool) {
	for cond() && s.Step() {
	}
}

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
