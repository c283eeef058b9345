package simtime

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"time"
)

// Pending returns the number of events waiting in the queue.
func (s *Simulator) Pending() int { return s.queue.Len() }

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: ScheduleAt with nil fn")
	}
	if at < s.now {
		at = s.now
	}
	return s.scheduleAt(at, fn, 0)
}
