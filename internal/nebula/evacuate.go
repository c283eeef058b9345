package nebula

import (
	"fmt"
	"sort"

	"videocloud/internal/virt"
)

// This file implements two orchestrator-level operations the paper's
// deployment motivates: host evacuation (maintenance without downtime,
// built on the live migration of Figures 8-10) and consolidation (the
// §III-A "economize power" goal: pack VMs onto fewer hosts so the rest can
// be powered down).

// Evacuate puts a host in maintenance mode and live-migrates every running
// VM off it, choosing destinations with the active placement policy. It
// returns the number of migrations started; drive the simulation (WaitIdle)
// to let them finish. VMs for which no destination fits stay put and are
// reported in the error; the host remains disabled either way, and every
// scheduling pass runs the same evacuation again until nothing is left.
func (c *Cloud) Evacuate(hostName string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hostByName[hostName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchHost, hostName)
	}
	h.SetDisabled(true)
	c.reg.Counter("hosts_disabled").Inc()
	started, stuck := c.evacuateLocked(h)
	if len(stuck) > 0 {
		c.reg.Counter("evacuations_stuck").Add(int64(len(stuck)))
		return started, fmt.Errorf("nebula: evacuation of %q left %v in place (no capacity)",
			hostName, stuck)
	}
	return started, nil
}

// needsEvacuationLocked is the maintenance deficit, derived rather than
// queued: a record still has to leave exactly when it is Running on a
// Disabled host. However it got there — no room when Evacuate ran, a boot or
// resume that finished afterwards, a migration that failed — the next
// scheduling pass sees it, and nothing has to remember it in between.
func (c *Cloud) needsEvacuationLocked(rec *VMRecord) bool {
	if rec.State != Running {
		return false
	}
	h := c.hostByName[rec.HostName]
	return h != nil && h.Disabled()
}

// evacuateLocked is the one evacuation pass: every record that still has to
// leave h is live-migrated to the destination the active policy picks. It
// returns the migrations started and the names of the VMs left in place.
func (c *Cloud) evacuateLocked(h *virt.Host) (started int, stuck []string) {
	for _, rec := range c.recordsOnHost(h.Name) {
		if !c.needsEvacuationLocked(rec) {
			continue
		}
		target := c.destinationLocked(rec, c.hosts, c.policy)
		if target == nil || c.liveMigrateLocked(rec, target, migratePlaced) != nil {
			stuck = append(stuck, rec.Name())
			continue
		}
		started++
	}
	return started, stuck
}

// StuckEvacuations returns how many VMs still have to leave a host in
// maintenance and are not on their way: they wait for capacity, or for the
// next pass to retry a migration that failed.
func (c *Cloud) StuckEvacuations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rec := range c.vms {
		if c.needsEvacuationLocked(rec) {
			n++
		}
	}
	return n
}

// Enable takes a host out of maintenance mode.
func (c *Cloud) Enable(hostName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hostByName[hostName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchHost, hostName)
	}
	h.SetDisabled(false)
	c.kickScheduler()
	return nil
}

// recordsOnHost returns the records resident on a host, sorted by ID for
// deterministic evacuation order.
func (c *Cloud) recordsOnHost(hostName string) []*VMRecord {
	var out []*VMRecord
	for _, rec := range c.vms {
		if rec.HostName == hostName && rec.VM != nil {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ConsolidationPlan describes the migrations Consolidate started.
type ConsolidationPlan struct {
	// Moves lists (vm id, destination host) pairs.
	Moves []ConsolidationMove
	// CandidateHosts counts hosts the plan tries to empty.
	CandidateHosts int
}

// ConsolidationMove is one planned migration.
type ConsolidationMove struct {
	VMID int
	From string
	To   string
}

// Consolidate runs one pass of power-saving consolidation: hosts are
// visited emptiest first, and each of their VMs is live-migrated to the
// fullest other host that can take it — the packing heuristic applied to an
// already-running cloud. The migrations run in virtual time; after WaitIdle,
// EmptyHosts reports how many machines could be powered down.
func (c *Cloud) Consolidate() ConsolidationPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var plan ConsolidationPlan

	hosts := append([]*virt.Host(nil), c.hosts...)
	sort.Slice(hosts, func(i, j int) bool {
		fi, fj := hosts[i].FreeMemory(), hosts[j].FreeMemory()
		if fi != fj {
			return fi > fj // emptiest (most free) first
		}
		return hosts[i].Name < hosts[j].Name
	})
	for _, h := range hosts {
		recs := c.recordsOnHost(h.Name)
		if len(recs) == 0 {
			continue
		}
		plan.CandidateHosts++
		for _, rec := range recs {
			if rec.State != Running {
				continue
			}
			// Fullest host that may take it, but never one emptier
			// than the source (that would fight consolidation).
			// Ties break toward the lexically smaller host name so
			// equally loaded hosts drain in one direction instead
			// of ping-ponging between passes.
			var fuller []*virt.Host
			for _, cand := range c.hosts {
				cf, hf := cand.FreeMemory(), h.FreeMemory()
				if cf < hf || (cf == hf && cand.Name < h.Name) {
					fuller = append(fuller, cand)
				}
			}
			target := c.destinationLocked(rec, fuller, PackingPolicy{})
			if target == nil || c.liveMigrateLocked(rec, target, migratePlaced) != nil {
				continue
			}
			plan.Moves = append(plan.Moves, ConsolidationMove{
				VMID: rec.ID, From: h.Name, To: target.Name,
			})
		}
	}
	if len(plan.Moves) > 0 {
		c.reg.Counter("consolidation_passes").Inc()
	}
	return plan
}

// EmptyHosts returns the names of hosts with no resident VMs or
// reservations — the machines consolidation freed for power-down.
func (c *Cloud) EmptyHosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, h := range c.hosts {
		vcpus, mem, disk := h.Usage()
		if vcpus == 0 && mem == 0 && disk == 0 && !h.Failed() {
			out = append(out, h.Name)
		}
	}
	sort.Strings(out)
	return out
}
