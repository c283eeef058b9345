package nebula

import (
	"sort"

	"videocloud/internal/virt"
)

// Tenant admission and accounting for the orchestrator core. The cloud does
// not know about quotas or ledgers itself — a TenantGate (wired by core from
// the tenant registry) is consulted at submit time and told about VM
// lifetime, keeping the dependency one-way: nebula defines the seam, the
// tenant package stays ignorant of VMs.

// TenantGate admits owned VM submissions against per-tenant quotas and
// receives usage callbacks as instances run and retire.
type TenantGate interface {
	// AdmitVM runs check-and-reserve against the owner's VM quota; a
	// non-nil error (typically tenant.ErrQuotaExceeded) rejects the
	// submission before a record is created.
	AdmitVM(owner string) error
	// ReleaseVM returns the slot when the instance reaches a terminal
	// state (Done or Failed). A recovery requeue is NOT terminal: the
	// record keeps its slot while the orchestrator restarts it elsewhere,
	// so a host crash can never double-admit a tenant past its quota.
	ReleaseVM(owner string)
	// MeterVMSeconds reports one completed Running interval, measured on
	// the virtual clock.
	MeterVMSeconds(owner string, secs float64)
}

// SetTenantGate installs the admission/accounting hook. Set it before
// submitting owned templates; a nil gate (the default) admits everything and
// meters nothing, preserving single-tenant behaviour.
func (c *Cloud) SetTenantGate(g TenantGate) {
	c.mu.Lock()
	c.gate = g
	c.mu.Unlock()
}

// accountTransition runs inside setState (c.mu held): it closes a Running
// interval on the way out of Running, opens one on the way in, and returns
// the admission slot when the record settles terminally.
func (c *Cloud) accountTransition(rec *VMRecord, to VMState) {
	owner := rec.Template.Owner
	if c.gate == nil || owner == "" {
		return
	}
	now := c.sim.Now()
	if rec.State == Running && to != Running {
		c.gate.MeterVMSeconds(owner, (now - rec.runningSince).Seconds())
	}
	if to == Running && rec.State != Running {
		rec.runningSince = now
	}
	if (to == Done || to == Failed) && rec.admitted {
		rec.admitted = false
		c.gate.ReleaseVM(owner)
	}
}

// ownerAware is an optional Policy extension: policies that place by tenant
// footprint get the owner's current per-host VM counts alongside the
// request. TenantSpreadPolicy implements it.
type ownerAware interface {
	RankForOwner(candidates []*virt.Host, req virt.VMConfig, ownerVMs map[string]int) []*virt.Host
}

// ownerCountsLocked counts the owner's active instances per host (c.mu
// held). Terminal records don't occupy capacity and are skipped.
func (c *Cloud) ownerCountsLocked(owner string) map[string]int {
	counts := make(map[string]int)
	for _, rec := range c.vms {
		if rec.Template.Owner == owner && rec.State.occupiesHost() {
			counts[rec.HostName]++
		}
	}
	return counts
}

// TenantSpreadPolicy places each tenant's VMs on the hosts where that tenant
// has the fewest instances already, so one bulk tenant's fleet spreads thin
// instead of saturating the host a victim's VM shares — noisy-neighbor
// isolation at placement time. Ties break like striping (most free memory
// first). Templates without an Owner fall back to plain striping.
type TenantSpreadPolicy struct{}

// Name implements Policy.
func (TenantSpreadPolicy) Name() string { return "tenant-spread" }

// Rank implements Policy (the ownerless fallback).
func (TenantSpreadPolicy) Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host {
	return StripingPolicy{}.Rank(candidates, req)
}

// RankForOwner implements ownerAware.
func (TenantSpreadPolicy) RankForOwner(candidates []*virt.Host, req virt.VMConfig, ownerVMs map[string]int) []*virt.Host {
	out := append([]*virt.Host(nil), candidates...)
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := ownerVMs[out[i].Name], ownerVMs[out[j].Name]
		if ci != cj {
			return ci < cj // fewest of this owner's VMs first
		}
		fi, fj := out[i].FreeMemory(), out[j].FreeMemory()
		if fi != fj {
			return fi > fj
		}
		return out[i].Name < out[j].Name
	})
	return out
}
