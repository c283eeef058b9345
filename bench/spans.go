package main

import (
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, made by the benchmark around the
// call: spans inside the program are a later change.
type span struct {
	ID     int
	Parent int    // 0: a root
	Req    int    // spans of one request share it
	Name   string // "<layer>.<operation>"
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps the layer pass's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(l.t0)})
	return len(l.spans)
}

// end closes span id and returns how long it was open.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (l *spanLog) chrome() []chromeEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out = append(out, chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return out
}
