package web

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"videocloud/internal/trace"
)

// AdminID returns the administrator account's user id (shared fleet-wide).
func (s *Site) AdminID() int64 {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return s.state.adminID
}

// Tracer exposes the site's tracer (nil when tracing is not configured).
func (s *Site) Tracer() *trace.Tracer { return s.tracer }
