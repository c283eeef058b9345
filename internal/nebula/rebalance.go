package nebula

import (
	"sort"
	"time"

	"videocloud/internal/simtime"
	"videocloud/internal/virt"
)

// Rebalancer periodically measures per-host load spread and live-migrates
// VMs off hot hosts onto cold ones — the OpenNebula load-balancing study
// (arXiv:1406.5759) applied to the paper's testbed. It is the scheduler asked
// a third question, not a third scheduler: whether a VM may go to the cold
// host is destinationLocked's answer over a pool of one, as evacuation and
// consolidation ask it over theirs. Chaos-hardened the same way as the
// elastic controller:
//
//   - a migration budget caps moves per pass (migrations are not free);
//   - a move is only taken if it strictly shrinks the hot/cold gap, so two
//     equally loaded hosts can never ping-pong a VM between passes;
//   - the failure-aware guard skips passes while failure detection or VM
//     recovery is in progress — rebalancing must not fight evacuation.
//
// Load is the host's reserved-memory fraction: deterministic (reservations
// are fixed per template) and the binding resource for VM packing here.
type Rebalancer struct {
	cloud *Cloud
	// spread is the target max−min host load gap; passes only act above it.
	spread float64

	ticker *simtime.Event
}

const (
	// rebalanceSpread is the default load gap a rebalancer tolerates.
	rebalanceSpread = 0.25
	// rebalanceBudget caps live migrations per pass.
	rebalanceBudget = 2
	// rebalanceGuardHold freezes passes for this long after a host failure
	// (virtual time).
	rebalanceGuardHold = 5 * time.Second
)

// NewRebalancer binds a rebalancer with the given target load gap; 0
// selects rebalanceSpread.
func NewRebalancer(cloud *Cloud, spread float64) *Rebalancer {
	if spread <= 0 {
		spread = rebalanceSpread
	}
	return &Rebalancer{cloud: cloud, spread: spread}
}

// Start runs a pass every interval of virtual time. The periodic event keeps
// the simulation queue non-empty: call Stop before WaitIdle.
func (r *Rebalancer) Start(interval time.Duration) {
	c := r.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.ticker != nil {
		r.ticker.Cancel()
	}
	r.ticker = c.sim.Every(interval, func() { r.runPassLocked() })
}

// Stop halts periodic passes (in-flight migrations complete).
func (r *Rebalancer) Stop() {
	c := r.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.ticker != nil {
		r.ticker.Cancel()
		r.ticker = nil
	}
}

// PassNow runs one pass immediately (tests and operator use); it returns the
// number of migrations started. Drive the simulation to let them finish.
func (r *Rebalancer) PassNow() int {
	c := r.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.runPassLocked()
}

// hostLoad is one host's reserved-memory fraction.
type hostLoad struct {
	h    *virt.Host
	frac float64
}

// runPassLocked computes the spread and moves VMs hot→cold, bounded by the
// budget, with c.mu held. Returns migrations started.
func (r *Rebalancer) runPassLocked() int {
	c := r.cloud
	if c.recoveryActiveLocked(rebalanceGuardHold) {
		c.reg.Counter("rebalance_skipped_guard").Inc()
		return 0
	}
	started := 0
	for started < rebalanceBudget {
		loads := c.hostLoadsLocked()
		if len(loads) < 2 {
			break
		}
		// Hottest and coldest; names break ties for determinism.
		sort.Slice(loads, func(i, j int) bool {
			if loads[i].frac != loads[j].frac {
				return loads[i].frac > loads[j].frac
			}
			return loads[i].h.Name < loads[j].h.Name
		})
		hot, cold := loads[0], loads[len(loads)-1]
		gap := hot.frac - cold.frac
		if gap <= r.spread {
			break
		}
		if !r.moveOneLocked(hot, cold, gap) {
			break // nothing movable shrinks the gap; stop the pass
		}
		started++
	}
	if started > 0 {
		c.reg.Counter("rebalance_passes").Inc()
	}
	return started
}

// hostLoadsLocked returns the load fraction of every schedulable host, in
// pool order.
func (c *Cloud) hostLoadsLocked() []hostLoad {
	loads := make([]hostLoad, 0, len(c.hosts))
	for _, h := range c.hosts {
		if h.Failed() || h.Disabled() || h.MemoryBytes <= 0 {
			continue
		}
		_, usedMem, _ := h.Usage()
		loads = append(loads, hostLoad{h: h, frac: float64(usedMem) / float64(h.MemoryBytes)})
	}
	return loads
}

// moveOneLocked migrates one Running VM from hot to cold if doing so
// strictly shrinks the gap between the two (anti-ping-pong: the destination
// must stay below the source's old level, and the source must stay above the
// destination's old level would be too strict — shrinking the pairwise gap
// suffices for convergence). Returns whether a migration started.
func (r *Rebalancer) moveOneLocked(hot, cold hostLoad, gap float64) bool {
	c := r.cloud
	for _, rec := range c.recordsOnHost(hot.h.Name) {
		if rec.State != Running || c.draining[rec.ID] != nil {
			continue
		}
		m := float64(rec.Template.MemoryBytes)
		newHot := hot.frac - m/float64(hot.h.MemoryBytes)
		newCold := cold.frac + m/float64(cold.h.MemoryBytes)
		if newGap := newCold - newHot; newGap >= gap || -newGap >= gap {
			continue // the move would not strictly shrink the spread
		}
		target := c.destinationLocked(rec, []*virt.Host{cold.h}, c.policy)
		if target == nil || c.liveMigrateLocked(rec, target, migrateRebalance) != nil {
			continue
		}
		c.reg.Counter("rebalance_migrations").Inc()
		return true
	}
	return false
}

// HostLoadSpread returns the min and max schedulable-host load fractions and
// their gap — the metric the rebalancer drives down and E16 gates on.
func (c *Cloud) HostLoadSpread() (min, max, spread float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, l := range c.hostLoadsLocked() {
		if i == 0 || l.frac < min {
			min = l.frac
		}
		if i == 0 || l.frac > max {
			max = l.frac
		}
	}
	return min, max, max - min
}
