// Package simnet models the cluster network that connects physical hosts in
// the simulated testbed (DESIGN.md §2). It is a flow-level simulator: each
// transfer is a fluid flow constrained by the sender's egress NIC and the
// receiver's ingress NIC, and concurrent flows share bandwidth max-min
// fairly, the standard first-order model for TCP on a non-blocking switch
// fabric. Whenever the flow set changes, per-flow rates are recomputed by
// progressive filling and completion events are rescheduled on the simtime
// kernel.
//
// Live-migration timing (paper Figs 8-10), HDFS pipeline placement cost and
// VM provisioning all derive their durations from this model.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/simtime"
)

// Gbps converts a gigabit-per-second figure to bytes per second, the base
// rate unit used throughout the package.
const Gbps = 1e9 / 8

// ErrUnknownHost is returned when a transfer names a host that was never
// added to the network.
var ErrUnknownHost = errors.New("simnet: unknown host")

// ErrSameHost is returned for a transfer whose source and destination are
// the same host; such copies are local and cost no network time.
var ErrSameHost = errors.New("simnet: transfer to self")

// Host is one endpoint on the fabric. Egress and Ingress are NIC capacities
// in bytes/second; Latency is the one-way propagation delay between the host
// and the switch fabric.
type Host struct {
	Name    string
	Egress  float64
	Ingress float64
	Latency time.Duration

	// exact byte accounting for utilization reports
	sent     int64
	received int64
}

// Sent returns the total bytes this host has finished sending.
func (h *Host) Sent() int64 { return h.sent }

// Received returns the total bytes this host has finished receiving.
func (h *Host) Received() int64 { return h.received }

// Result describes a completed transfer.
type Result struct {
	Src, Dst string
	Bytes    int64
	Start    time.Duration // virtual time the transfer was issued
	End      time.Duration // virtual time the last byte arrived
}

// Duration returns End-Start.
func (r Result) Duration() time.Duration { return r.End - r.Start }

// Flow is an in-progress transfer. It is returned by Transfer so callers can
// cancel it (e.g. a migration that aborts).
type Flow struct {
	src, dst   *Host
	bytes      int64
	remaining  float64
	rate       float64 // bytes/second, 0 before the latency phase ends
	lastUpdate time.Duration
	start      time.Duration
	active     bool // true once past propagation latency
	canceled   bool
	finished   bool
	completion *simtime.Event
	done       func(Result)
	net        *Network
}

// Cancel aborts the flow; the done callback is never invoked. Cancel reports
// whether the flow was still in progress.
func (f *Flow) Cancel() bool {
	if f.finished || f.canceled {
		return false
	}
	f.canceled = true
	if f.completion != nil {
		f.completion.Cancel()
	}
	if f.active {
		f.net.advanceProgress()
		delete(f.net.flows, f)
		f.net.reschedule()
	}
	return true
}

// Network is the fabric connecting all hosts. It must be driven by a single
// goroutine together with its simtime.Simulator.
type Network struct {
	sim         *simtime.Simulator
	hosts       map[string]*Host
	flows       map[*Flow]struct{}
	partitioned map[*Host]bool
	reg         *metrics.Registry
}

// New returns an empty network on the given simulator.
func New(sim *simtime.Simulator) *Network {
	return &Network{
		sim:         sim,
		hosts:       make(map[string]*Host),
		flows:       make(map[*Flow]struct{}),
		partitioned: make(map[*Host]bool),
		reg:         metrics.NewRegistry(),
	}
}

// AddHost registers a host. Duplicate names and non-positive bandwidths are
// programming errors and panic.
func (n *Network) AddHost(name string, egress, ingress float64, latency time.Duration) *Host {
	if name == "" {
		panic("simnet: empty host name")
	}
	if _, dup := n.hosts[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate host %q", name))
	}
	if egress <= 0 || ingress <= 0 {
		panic(fmt.Sprintf("simnet: host %q with non-positive bandwidth", name))
	}
	if latency < 0 {
		panic(fmt.Sprintf("simnet: host %q with negative latency", name))
	}
	h := &Host{Name: name, Egress: egress, Ingress: ingress, Latency: latency}
	n.hosts[name] = h
	return h
}

// Host returns a registered host, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Partition isolates a host from the fabric: every active flow touching it
// freezes at rate zero (no progress, no completion) and new transfers stall
// the same way until Heal. Zero-byte transfers still complete after
// propagation latency — they model control messages already in flight.
// Partition models a switch-port or cable failure, the "destination stops
// responding" scenario for migration deadlines.
func (n *Network) Partition(name string) error {
	h, ok := n.hosts[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if n.partitioned[h] {
		return nil
	}
	n.advanceProgress()
	n.partitioned[h] = true
	n.reg.Counter("partitions").Inc()
	n.reschedule()
	return nil
}

// Heal reconnects a partitioned host; stalled flows resume at fair-share
// rates from wherever they froze.
func (n *Network) Heal(name string) error {
	h, ok := n.hosts[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if !n.partitioned[h] {
		return nil
	}
	n.advanceProgress()
	delete(n.partitioned, h)
	n.reg.Counter("partition_heals").Inc()
	n.reschedule()
	return nil
}

// Partitioned reports whether the named host is currently isolated.
func (n *Network) Partitioned(name string) bool {
	h, ok := n.hosts[name]
	return ok && n.partitioned[h]
}

// EstimateTransfer returns the contention-free time to move bytes from src
// to dst: propagation latency plus bytes over the bottleneck NIC.
func (n *Network) EstimateTransfer(src, dst string, bytes int64) (time.Duration, error) {
	s, d, err := n.pair(src, dst)
	if err != nil {
		return 0, err
	}
	bw := math.Min(s.Egress, d.Ingress)
	secs := float64(bytes) / bw
	return s.Latency + d.Latency + time.Duration(secs*float64(time.Second)), nil
}

// Transfer starts moving bytes from src to dst. done (may be nil) is invoked
// on the simulation goroutine when the last byte arrives. Zero-byte
// transfers complete after propagation latency alone.
func (n *Network) Transfer(src, dst string, bytes int64, done func(Result)) (*Flow, error) {
	s, d, err := n.pair(src, dst)
	if err != nil {
		return nil, err
	}
	if bytes < 0 {
		return nil, fmt.Errorf("simnet: negative transfer size %d", bytes)
	}
	f := &Flow{
		src: s, dst: d,
		bytes: bytes, remaining: float64(bytes),
		start: n.sim.Now(), done: done, net: n,
	}
	lat := s.Latency + d.Latency
	n.sim.Schedule(lat, func() {
		if f.canceled {
			return
		}
		if f.bytes == 0 {
			f.complete()
			return
		}
		f.active = true
		f.lastUpdate = n.sim.Now()
		n.advanceProgress()
		n.flows[f] = struct{}{}
		n.reschedule()
	})
	n.reg.Counter("flows_started").Inc()
	return f, nil
}

func (n *Network) pair(src, dst string) (*Host, *Host, error) {
	s, ok := n.hosts[src]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownHost, src)
	}
	d, ok := n.hosts[dst]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownHost, dst)
	}
	if s == d {
		return nil, nil, ErrSameHost
	}
	return s, d, nil
}

// advanceProgress debits remaining bytes on every active flow for the time
// elapsed since the last rate change.
func (n *Network) advanceProgress() {
	now := n.sim.Now()
	for f := range n.flows {
		dt := (now - f.lastUpdate).Seconds()
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastUpdate = now
	}
}

// reschedule recomputes max-min fair rates by progressive filling and
// re-arms each flow's completion event.
func (n *Network) reschedule() {
	if len(n.flows) == 0 {
		return
	}
	// Directional capacities: each host egress and ingress is a "link".
	type link struct {
		cap   float64
		flows []*Flow
	}
	links := make(map[*Host]map[bool]*link) // bool: true=egress
	get := func(h *Host, egress bool) *link {
		m := links[h]
		if m == nil {
			m = make(map[bool]*link)
			links[h] = m
		}
		l := m[egress]
		if l == nil {
			c := h.Ingress
			if egress {
				c = h.Egress
			}
			l = &link{cap: c}
			m[egress] = l
		}
		return l
	}
	frozen := make(map[*Flow]bool, len(n.flows))
	ordered := make([]*Flow, 0, len(n.flows))
	for f := range n.flows {
		ordered = append(ordered, f)
	}
	// Deterministic iteration: order by start time then src/dst names.
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.src.Name != b.src.Name {
			return a.src.Name < b.src.Name
		}
		return a.dst.Name < b.dst.Name
	})
	for _, f := range ordered {
		if n.partitioned[f.src] || n.partitioned[f.dst] {
			// Frozen by a partition: rate 0, no link share, and the
			// completion loop below cancels any pending event.
			f.rate = 0
			frozen[f] = true
			continue
		}
		e := get(f.src, true)
		i := get(f.dst, false)
		e.flows = append(e.flows, f)
		i.flows = append(i.flows, f)
	}
	for len(frozen) < len(ordered) {
		// Find the most constrained link: min cap / unfrozen count.
		var bottleneck *link
		best := math.Inf(1)
		for _, m := range links {
			for _, l := range m {
				cnt := 0
				for _, f := range l.flows {
					if !frozen[f] {
						cnt++
					}
				}
				if cnt == 0 {
					continue
				}
				share := l.cap / float64(cnt)
				if share < best {
					best = share
					bottleneck = l
				}
			}
		}
		if bottleneck == nil {
			break
		}
		for _, f := range bottleneck.flows {
			if frozen[f] {
				continue
			}
			frozen[f] = true
			f.rate = best
			// Debit this flow's rate from both of its links.
			get(f.src, true).cap -= best
			get(f.dst, false).cap -= best
		}
	}
	now := n.sim.Now()
	for _, f := range ordered {
		if f.completion != nil {
			f.completion.Cancel()
		}
		if f.rate <= 0 {
			// Partition-frozen (or degenerate capacity): no completion
			// event — the flow stalls until a Heal reschedules it.
			continue
		}
		secs := f.remaining / f.rate
		f.completion = n.sim.Schedule(time.Duration(secs*float64(time.Second))+1, func() {
			// +1ns absorbs float truncation so the flow always has
			// <=0 remaining when its completion fires.
			n.advanceProgress()
			if f.remaining > 1 { // not actually done (rates changed)
				n.reschedule()
				return
			}
			delete(n.flows, f)
			f.complete()
			n.reschedule()
		})
		_ = now
	}
}

func (f *Flow) complete() {
	if f.finished || f.canceled {
		return
	}
	f.finished = true
	f.src.sent += f.bytes
	f.dst.received += f.bytes
	n := f.net
	n.reg.Counter("flows_completed").Inc()
	n.reg.Counter("bytes_transferred").Add(f.bytes)
	res := Result{
		Src: f.src.Name, Dst: f.dst.Name,
		Bytes: f.bytes, Start: f.start, End: n.sim.Now(),
	}
	n.reg.Histogram("flow_seconds").Observe(res.Duration().Seconds())
	if f.done != nil {
		f.done(res)
	}
}
