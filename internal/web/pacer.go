package web

import (
	"net/http"
	"time"
)

// pacer is a token bucket capping one replica's aggregate streaming egress —
// the per-frontend NIC model. The paper's web server is a VM on one GbE
// port; a fleet scales serving capacity by adding frontends, and E14
// measures exactly that, so each replica's stream bytes drain through its
// own bucket. The bucket allows a one-second burst so short Range windows
// are not over-throttled.
type pacer struct {
	ch chan struct{} // serialises refill accounting

	rate   float64 // bytes per second; <= 0 disables
	tokens float64
	last   time.Time
}

// newPacer returns a pacer for rate bytes/sec, or nil when rate <= 0
// (unpaced).
func newPacer(rate int64) *pacer {
	if rate <= 0 {
		return nil
	}
	p := &pacer{
		ch:     make(chan struct{}, 1),
		rate:   float64(rate),
		tokens: float64(rate), // full one-second burst at start
		last:   time.Now(),
	}
	p.ch <- struct{}{}
	return p
}

// acquire blocks until n bytes of egress budget are available. Nil receiver
// is a no-op (unpaced replica).
func (p *pacer) acquire(n int) {
	if p == nil || n <= 0 {
		return
	}
	need := float64(n)
	for {
		<-p.ch // acquire accounting slot
		now := time.Now()
		p.tokens += now.Sub(p.last).Seconds() * p.rate
		p.last = now
		if p.tokens > p.rate {
			p.tokens = p.rate // burst cap: one second of egress
		}
		if p.tokens >= need {
			p.tokens -= need
			p.ch <- struct{}{}
			return
		}
		wait := time.Duration((need - p.tokens) / p.rate * float64(time.Second))
		p.ch <- struct{}{}
		time.Sleep(wait)
	}
}

// pacedWriter throttles response writes through the replica's pacer.
// net.Buffers.WriteTo makes one Write call per view on any ResponseWriter,
// so the zero-copy slice path stays intact — each cached block slice is just
// metered before it leaves.
type pacedWriter struct {
	http.ResponseWriter
	p *pacer
}

func (w pacedWriter) Write(b []byte) (int, error) {
	w.p.acquire(len(b))
	return w.ResponseWriter.Write(b)
}

func (w pacedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w pacedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
