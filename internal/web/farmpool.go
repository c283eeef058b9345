package web

import (
	"context"
	"errors"
	"sort"
	"sync"

	"videocloud/internal/video"
)

// farmPool manages the conversion farm's node set at runtime — the web-tier
// half of elastic scaling, one per fleet (fleetState). The nebula controller
// adds a node when its VM reaches Running, marks it draining when scale-down
// begins (no new conversions are assigned, in-flight ones finish), and removes
// it once the drain completes. Expel is the drain-deadline/host-crash path: conversions
// still using the node are cancelled with errFarmNodeExpelled so the
// transcode layer retries them on the surviving nodes instead of failing the
// upload — requeue, not drop.
//
// Every conversion snapshots the assignable node set (video.Farm is a value
// type) and registers itself per node, so per-node in-flight counts are exact
// and a drain can wait for precisely the conversions that node touches.
type farmPool struct {
	mu       sync.Mutex
	base     video.Farm      // carries speed/bandwidth params + fallback nodes
	active   []string        // assignable nodes, stable order
	draining map[string]bool // still finishing in-flight work, no new ones
	nextConv int64
	convs    map[int64]*poolConv
	inflight map[string]int // node → conversions whose snapshot includes it
}

// poolConv is one registered in-flight conversion.
type poolConv struct {
	nodes  []string
	cancel context.CancelCauseFunc
}

// errFarmNodeExpelled is the cancellation cause used when a node is yanked
// mid-conversion (drain deadline expired or its host died); the transcode
// path retries on it rather than failing the upload.
var errFarmNodeExpelled = errors.New("web: farm node expelled mid-conversion")

func newFarmPool(base video.Farm) *farmPool {
	return &farmPool{
		base:     base,
		active:   append([]string(nil), base.Nodes...),
		draining: make(map[string]bool),
		convs:    make(map[int64]*poolConv),
		inflight: make(map[string]int),
	}
}

// acquire snapshots the assignable node set for one conversion. It returns a
// context cancelled if any snapshot node is expelled, the farm to convert
// with, and a release func the caller must run when the conversion finishes.
func (p *farmPool) acquire(ctx context.Context) (context.Context, video.Farm, func()) {
	p.mu.Lock()
	nodes := make([]string, 0, len(p.active))
	for _, n := range p.active {
		if !p.draining[n] {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		// Liveness fallback: never refuse a conversion outright — the
		// statically provisioned base nodes always exist even if every
		// elastic node is mid-retirement.
		nodes = append(nodes, p.base.Nodes...)
	}
	cctx, cancel := context.WithCancelCause(ctx)
	p.nextConv++
	id := p.nextConv
	p.convs[id] = &poolConv{nodes: nodes, cancel: cancel}
	for _, n := range nodes {
		p.inflight[n]++
	}
	p.mu.Unlock()

	release := func() {
		p.mu.Lock()
		if c, ok := p.convs[id]; ok {
			delete(p.convs, id)
			for _, n := range c.nodes {
				if p.inflight[n]--; p.inflight[n] <= 0 {
					delete(p.inflight, n)
				}
			}
		}
		p.mu.Unlock()
		cancel(nil) // free the cause context; no-op if already cancelled
	}
	return cctx, p.base.WithNodes(nodes), release
}

// add registers a node (a fleet VM that reached Running) — or returns a
// draining node to service (scale-out reclaimed it before it finished).
func (p *farmPool) add(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining[name] {
		delete(p.draining, name)
		return
	}
	for _, n := range p.active {
		if n == name {
			return
		}
	}
	p.active = append(p.active, name)
}

// drain stops assigning the node new conversions; in-flight ones finish.
func (p *farmPool) drain(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.active {
		if n == name {
			p.draining[name] = true
			return
		}
	}
}

// remove deletes the node from the pool entirely (drain completed).
func (p *farmPool) remove(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.draining, name)
	kept := p.active[:0]
	for _, n := range p.active {
		if n != name {
			kept = append(kept, n)
		}
	}
	p.active = kept
}

// expel cancels every conversion whose snapshot includes the node, with
// errFarmNodeExpelled as the cause, and removes the node. The transcode
// layer's retry loop requeues the cancelled work on the remaining nodes.
func (p *farmPool) expel(name string) int {
	p.mu.Lock()
	var cancels []context.CancelCauseFunc
	for _, c := range p.convs {
		for _, n := range c.nodes {
			if n == name {
				cancels = append(cancels, c.cancel)
				break
			}
		}
	}
	delete(p.draining, name)
	kept := p.active[:0]
	for _, n := range p.active {
		if n != name {
			kept = append(kept, n)
		}
	}
	p.active = kept
	p.mu.Unlock()
	for _, cancel := range cancels {
		cancel(errFarmNodeExpelled)
	}
	return len(cancels)
}

// nodeInFlight reports conversions currently using the node.
func (p *farmPool) nodeInFlight(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight[name]
}

// activeConversions reports conversions in flight across the pool.
func (p *farmPool) activeConversions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.convs)
}

// snapshot returns the node list (draining included, flagged) and per-node
// in-flight counts for dashboards.
func (p *farmPool) snapshot() ([]FarmNodeStat, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FarmNodeStat, 0, len(p.active))
	for _, n := range p.active {
		out = append(out, FarmNodeStat{
			Node: n, InFlight: p.inflight[n], Draining: p.draining[n],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out, len(p.convs)
}

// FarmNodeStat is one conversion node's dashboard row.
type FarmNodeStat struct {
	Node     string
	InFlight int
	Draining bool
}

// ---- Farm management API (the elastic controller's hooks) ----
//
// The pool is the fleet's: each method acts on it through whichever replica
// it is called on, so the controller calls one replica, once.

// AddFarmNode adds (or un-drains) a conversion node at runtime.
func (s *Site) AddFarmNode(name string) { s.state.pool.add(name) }

// DrainFarmNode stops assigning the node new conversions.
func (s *Site) DrainFarmNode(name string) { s.state.pool.drain(name) }

// RemoveFarmNode removes a node whose drain completed.
func (s *Site) RemoveFarmNode(name string) { s.state.pool.remove(name) }

// ExpelFarmNode yanks a node immediately: conversions using it are cancelled
// and transparently retried on the remaining nodes. Returns how many
// conversions were interrupted.
func (s *Site) ExpelFarmNode(name string) int {
	n := s.state.pool.expel(name)
	if n > 0 {
		s.reg.Counter("farm_expels").Add(int64(n))
	}
	return n
}

// FarmNodeInFlight reports conversions currently using the node — the drain
// poll's signal.
func (s *Site) FarmNodeInFlight(name string) int { return s.state.pool.nodeInFlight(name) }

// TranscodeLoad is the elasticity signal: jobs waiting in the intake queue
// plus conversions executing right now (uploads and live pushes alike).
func (s *Site) TranscodeLoad() int {
	return s.state.pool.activeConversions() + s.state.queue.fq.Len()
}
