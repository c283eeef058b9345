package nebula

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"fmt"

	"videocloud/internal/simtime"
	"videocloud/internal/trace"
	"videocloud/internal/virt"
)

// Drain gracefully retires a running instance: it enters Draining, new work
// stops being assigned (opts.OnDrain), in-flight work finishes (polled via
// opts.InFlight, bounded by opts.Deadline), then the VM shuts down. Progress
// runs in virtual time; drive with RunFor/WaitIdle.
func (c *Cloud) Drain(id int, opts DrainOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	return c.drainLocked(rec, opts)
}

// DrainingCount returns how many instances are currently draining.
func (c *Cloud) DrainingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.draining)
}

// Sim exposes the simulation kernel (read-only use: Now()).
func (c *Cloud) Sim() *simtime.Simulator { return c.sim }

// Driver returns the active hypervisor driver.
func (c *Cloud) Driver() Driver { return c.driver }

// Tracer returns the attached tracer (nil when lifecycle tracing is off).
func (c *Cloud) Tracer() *trace.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// Host returns a host by name.
func (c *Cloud) Host(name string) (*virt.Host, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hostByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchHost, name)
	}
	return h, nil
}

// FailHost crash-injects a physical node and immediately runs recovery, as
// if the failure had just been detected: its VMs fail, and templates
// submitted with Requeue are resubmitted for placement elsewhere (with
// restart backoff and cap — see RecoveryOptions). Contrast CrashHost, which
// kills the node silently and leaves detection to the heartbeat monitor.
func (c *Cloud) FailHost(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hostByName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchHost, name)
	}
	c.monitor.markHandledLocked(name)
	c.handleHostFailureLocked(h)
	return nil
}

// Disable stops sampling.
func (m *Monitor) Disable() {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.ticker != nil {
		m.ticker.Cancel()
		m.ticker = nil
	}
}

// SetUnresponsive hang-injects a host: the machine keeps its guests running
// but stops answering heartbeats, the gray-failure case a crash test alone
// misses. The monitor must detect and fence it like a crash.
func (m *Monitor) SetUnresponsive(host string, v bool) error {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hostByName[host]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchHost, host)
	}
	m.unresponsive[host] = v
	return nil
}

// HostSeries returns the observations for one host.
func (m *Monitor) HostSeries(host string) []Sample {
	c := m.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Sample
	for _, s := range m.samples {
		if s.Host == host {
			out = append(out, s)
		}
	}
	return out
}

// markHandledLocked records that a host's failure is already being recovered
// (e.g. an operator called FailHost), so the detector does not double-fire.
func (m *Monitor) markHandledLocked(host string) { m.handled[host] = true }
