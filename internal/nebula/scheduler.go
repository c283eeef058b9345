package nebula

import (
	"sort"

	"videocloud/internal/virt"
)

// Policy is a Capacity Manager placement policy: "the capacity manager
// adjusts VM placement based on a set of predefined policies" (§III-A).
// Given the candidate hosts that can fit a request, Rank orders them best
// first. Hosts that cannot fit are filtered before Rank is called.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Rank orders candidates best-first. It must not mutate the slice's
	// hosts and must be deterministic.
	Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host
}

// PackingPolicy fills the most-loaded feasible host first, minimising the
// number of powered hosts — the paper's "economize power" goal (§III-A).
type PackingPolicy struct{}

// Name implements Policy.
func (PackingPolicy) Name() string { return "packing" }

// Rank implements Policy.
func (PackingPolicy) Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host {
	out := append([]*virt.Host(nil), candidates...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := out[i].FreeMemory(), out[j].FreeMemory()
		if fi != fj {
			return fi < fj // least free memory first = most packed first
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// StripingPolicy spreads VMs across hosts, maximising per-VM headroom —
// OpenNebula's default for performance-sensitive deployments.
type StripingPolicy struct{}

// Name implements Policy.
func (StripingPolicy) Name() string { return "striping" }

// Rank implements Policy.
func (StripingPolicy) Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host {
	out := append([]*virt.Host(nil), candidates...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := out[i].FreeMemory(), out[j].FreeMemory()
		if fi != fj {
			return fi > fj // most free memory first = emptiest first
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LoadAwarePolicy places on the host with the lowest current guest CPU
// demand, using the monitor's view rather than static reservations.
type LoadAwarePolicy struct{}

// Name implements Policy.
func (LoadAwarePolicy) Name() string { return "load-aware" }

// Rank implements Policy.
func (LoadAwarePolicy) Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host {
	out := append([]*virt.Host(nil), candidates...)
	util := make(map[*virt.Host]float64, len(out))
	for _, h := range out {
		util[h] = h.CPUUtilization()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if util[out[i]] != util[out[j]] {
			return util[out[i]] < util[out[j]]
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FixedPolicy pins every placement to one named host (OpenNebula's
// REQUIREMENTS = HOSTNAME pinning); requests for other hosts fail placement.
type FixedPolicy struct {
	// Host is the only acceptable placement target.
	Host string
}

// Name implements Policy.
func (p FixedPolicy) Name() string { return "fixed:" + p.Host }

// Rank implements Policy.
func (p FixedPolicy) Rank(candidates []*virt.Host, req virt.VMConfig) []*virt.Host {
	for _, h := range candidates {
		if h.Name == p.Host {
			return []*virt.Host{h}
		}
	}
	return nil
}

// place filters hosts that can fit req (CanFit also rejects failed and
// disabled hosts) and applies the policy. A non-nil ownerVMs — the request's
// tenant footprint, per-host VM counts — joins the ranking inputs of an
// owner-aware policy. It returns nil when no host fits.
func place(policy Policy, hosts []*virt.Host, req virt.VMConfig, ownerVMs map[string]int) *virt.Host {
	var candidates []*virt.Host
	for _, h := range hosts {
		if h.CanFit(req) {
			candidates = append(candidates, h)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	var ranked []*virt.Host
	if oa, ok := policy.(ownerAware); ok && ownerVMs != nil {
		ranked = oa.RankForOwner(candidates, req, ownerVMs)
	} else {
		ranked = policy.Rank(candidates, req)
	}
	if len(ranked) == 0 {
		return nil
	}
	return ranked[0]
}

// destinationLocked is the orchestrator's one placement decision: the hosts
// of pool the record may occupy, and the best of them under policy (nil when
// there is none). A record may not go where it already is, nor — if it is an
// anti-affine member of a group — where another anti-affine member of that
// group is or is migrating to, while ordinary members (a front-end VM, say)
// may share; the host must fit it; and an owned record is ranked by its
// tenant's footprint when the policy looks at one. First placement,
// evacuation, migration re-aim, consolidation and rebalancing differ only in
// the pool and the policy they ask with, so none of them repeats a rule.
func (c *Cloud) destinationLocked(rec *VMRecord, pool []*virt.Host, policy Policy) *virt.Host {
	taken := map[string]bool{rec.HostName: true}
	if rec.Template.AntiAffinity {
		for _, id := range c.groups[rec.Template.Group] {
			other := c.vms[id]
			if other != nil && other.ID != rec.ID && other.Template.AntiAffinity && other.State.occupiesHost() {
				taken[other.HostName] = true
				taken[other.migratingTo] = true
			}
		}
	}
	var allowed []*virt.Host
	for _, h := range pool {
		if !taken[h.Name] {
			allowed = append(allowed, h)
		}
	}
	var ownerVMs map[string]int
	if rec.Template.Owner != "" {
		ownerVMs = c.ownerCountsLocked(rec.Template.Owner)
	}
	return place(policy, allowed, c.vmConfig(rec), ownerVMs)
}
