package nebula

import (
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/simtime"
	"videocloud/internal/virt"
)

// Sample is one monitoring observation of one host — the data behind the
// paper's web interface, which "shows the CPU utilization, host loading,
// memory utilization, and VMs information" (§III-A).
type Sample struct {
	At          time.Duration
	Host        string
	CPUUtil     float64
	UsedMem     int64
	FreeMem     int64
	RunningVMs  int
	NetSent     int64
	NetReceived int64
}

// Monitor periodically samples every host. It is created by the Cloud; use
// Enable to start sampling and Disable before WaitIdle (periodic events keep
// the simulation queue non-empty).
//
// It is also the failure detector: EnableFailureDetection polls a heartbeat
// from every host each interval, and a host that misses MissThreshold
// consecutive beats — crashed (CrashHost) or hung (SetUnresponsive) — is
// declared failed and handed to the recovery engine (selfheal.go).
type Monitor struct {
	cloud   *Cloud
	samples []Sample
	ticker  *simtime.Event

	hbTicker     *simtime.Event
	missed       map[string]int           // consecutive missed heartbeats
	lastSeen     map[string]time.Duration // last successful beat, virtual time
	unresponsive map[string]bool          // hang-injected: alive but silent
	handled      map[string]bool          // failure already declared/declared-for-us
	// OnHostFailure, if set, observes each detection (host name, time since
	// the last good heartbeat). Called with the cloud mutex held — do not
	// call back into the Cloud.
	OnHostFailure func(host string, sinceLastSeen time.Duration)
}

func newMonitor(c *Cloud) *Monitor {
	return &Monitor{
		cloud:        c,
		missed:       make(map[string]int),
		lastSeen:     make(map[string]time.Duration),
		unresponsive: make(map[string]bool),
		handled:      make(map[string]bool),
	}
}

// Enable starts sampling every interval of virtual time. Calling Enable
// while enabled restarts the ticker with the new interval.
func (m *Monitor) Enable(interval time.Duration) {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.ticker != nil {
		m.ticker.Cancel()
	}
	m.ticker = c.sim.Every(interval, m.sampleLocked)
}

// EnableFailureDetection starts the heartbeat loop using the cloud's
// RecoveryOptions (interval, miss threshold). Like Enable, the periodic
// event keeps the queue non-empty: call DisableFailureDetection before
// WaitIdle.
func (m *Monitor) EnableFailureDetection() {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.hbTicker != nil {
		m.hbTicker.Cancel()
	}
	now := c.sim.Now()
	for _, h := range c.hosts {
		if !m.handled[h.Name] {
			m.lastSeen[h.Name] = now
		}
	}
	m.hbTicker = c.sim.Every(c.opts.Recovery.HeartbeatInterval, m.heartbeatLocked)
}

// DisableFailureDetection stops the heartbeat loop.
func (m *Monitor) DisableFailureDetection() {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.hbTicker != nil {
		m.hbTicker.Cancel()
		m.hbTicker = nil
	}
}

// heartbeatLocked is one detection tick: every host answers unless it is
// failed or hang-injected; MissThreshold consecutive silent ticks declare
// the host failed and trigger recovery.
func (m *Monitor) heartbeatLocked() {
	c := m.cloud
	now := c.sim.Now()
	threshold := c.opts.Recovery.MissThreshold
	for _, h := range c.hosts {
		if m.handled[h.Name] {
			continue
		}
		if !h.Failed() && !m.unresponsive[h.Name] {
			m.missed[h.Name] = 0
			m.lastSeen[h.Name] = now
			continue
		}
		m.missed[h.Name]++
		if m.missed[h.Name] < threshold {
			continue
		}
		m.handled[h.Name] = true
		sinceLastSeen := now - m.lastSeen[h.Name]
		c.reg.Counter("host_failures_detected").Inc()
		c.reg.Histogram("host_detect_seconds").Observe(sinceLastSeen.Seconds())
		if m.OnHostFailure != nil {
			m.OnHostFailure(h.Name, sinceLastSeen)
		}
		c.handleHostFailureLocked(h)
	}
}

// SampleNow records one observation of every host immediately.
func (m *Monitor) SampleNow() {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	m.sampleLocked()
}

// sampleLocked runs with the cloud mutex held (from the sim callback or
// SampleNow).
func (m *Monitor) sampleLocked() {
	c := m.cloud
	for _, h := range c.hosts {
		running := 0
		for _, vm := range h.VMs() {
			switch vm.State() {
			case virt.StateRunning, virt.StateMigrating:
				running++
			}
		}
		_, usedMem, _ := h.Usage()
		var sent, recv int64
		if nh := c.net.Host(h.Name); nh != nil {
			sent, recv = nh.Sent(), nh.Received()
		}
		m.samples = append(m.samples, Sample{
			At: c.sim.Now(), Host: h.Name,
			CPUUtil: h.CPUUtilization(),
			UsedMem: usedMem, FreeMem: h.MemoryBytes - usedMem,
			RunningVMs: running,
			NetSent:    sent, NetReceived: recv,
		})
	}
}

// Samples returns all recorded observations in order.
func (m *Monitor) Samples() []Sample {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// UtilizationTable renders the latest sample per host, the Sunstone-style
// dashboard view of Figure 7.
func (m *Monitor) UtilizationTable() *metrics.Table {
	c := m.cloud
	c.mu.Lock()
	latest := make(map[string]Sample)
	for _, s := range m.samples {
		latest[s.Host] = s
	}
	var hosts []string
	for _, h := range c.hosts {
		hosts = append(hosts, h.Name)
	}
	c.mu.Unlock()

	t := metrics.NewTable("host monitor", "host", "cpu_util", "used_mem_mb", "free_mem_mb", "running_vms")
	for _, name := range hosts {
		s, ok := latest[name]
		if !ok {
			continue
		}
		t.AddRow(name, s.CPUUtil, s.UsedMem>>20, s.FreeMem>>20, s.RunningVMs)
	}
	return t
}
