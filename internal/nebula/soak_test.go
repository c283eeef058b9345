package nebula

import (
	"fmt"
	"math/rand"
	"testing"

	"videocloud/internal/virt"
)

// TestCloudSoak drives the orchestrator with randomized operation sequences
// (submit — a share of it into one anti-affine group — shutdown, migrate,
// suspend/resume, evacuate with the host sometimes left in maintenance,
// consolidate) and checks global invariants after every settle:
//
//	I1: committed host resources equal the sum of resident VM configs —
//	    capacity is conserved through every life-cycle path;
//	I2: no host exceeds its physical capacity;
//	I3: every Running record's guest is Running on the host the record
//	    names;
//	I4: a record in Done/Failed holds no guest and no capacity;
//	I5: no two anti-affine members of a group share a host, whichever of
//	    placement, evacuation and consolidation moved them last;
//	I6: every Running record on a Disabled host is counted by
//	    StuckEvacuations, and none remains that some host in service could
//	    take — the maintenance deficit is worked off, not forgotten.
func TestCloudSoak(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c := testCloud(t, 4, Options{})
	var ids []int
	for step := 0; step < 60; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2: // submit
			tpl := webTemplate(fmt.Sprintf("vm%d-%d", seed, step))
			tpl.VCPUs = 1 + rng.Intn(2)
			tpl.MemoryBytes = int64(1+rng.Intn(3)) * gb
			tpl.Requeue = rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				tpl.Group, tpl.AntiAffinity = "dn", true
			}
			if id, err := c.Submit(tpl); err == nil {
				ids = append(ids, id)
			}
		case 3: // shutdown a random VM
			if len(ids) > 0 {
				c.Shutdown(ids[rng.Intn(len(ids))])
			}
		case 4: // migrate a random VM to a random host
			if len(ids) > 0 {
				hosts := c.Hosts()
				id, dst := ids[rng.Intn(len(ids))], hosts[rng.Intn(len(hosts))].Name
				// An operator names the host and is not second-guessed,
				// so I5 only holds if this one respects the group.
				if rec, _ := c.VM(id); !rec.Template.AntiAffinity {
					c.LiveMigrate(id, dst)
				}
			}
		case 5: // suspend/resume
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				if rec, err := c.VM(id); err == nil {
					if rec.State == Suspended {
						c.Resume(id)
					} else {
						c.Suspend(id)
					}
				}
			}
		case 6: // evacuate or re-enable a host
			hosts := c.Hosts()
			h := hosts[rng.Intn(len(hosts))]
			if h.Disabled() {
				c.Enable(h.Name)
			} else if rng.Intn(3) == 0 {
				c.Evacuate(h.Name)
				if rng.Intn(2) == 0 { // else a later draw re-enables it
					c.WaitIdle()
					c.Enable(h.Name)
				}
			}
		case 7: // consolidation pass
			if rng.Intn(2) == 0 {
				c.Consolidate()
			}
		}
		if rng.Intn(4) == 0 {
			c.WaitIdle()
			checkInvariants(t, c, step)
		}
	}
	c.WaitIdle()
	checkInvariants(t, c, -1)
}

func checkInvariants(t *testing.T, c *Cloud, step int) {
	t.Helper()
	// Expected per-host usage from the records' point of view.
	type usage struct {
		vcpus int
		mem   int64
		disk  int64
	}
	want := map[string]usage{}
	stranded := 0
	members := map[string]string{} // group/host → anti-affine member seen there
	c.mu.Lock()
	for _, rec := range c.vms {
		if rec.Template.AntiAffinity && rec.State.occupiesHost() {
			key := rec.Template.Group + "/" + rec.HostName
			if other, dup := members[key]; dup {
				c.mu.Unlock()
				t.Fatalf("step %d: anti-affine %s and %s share %s", step, other, rec.Name(), rec.HostName)
			}
			members[key] = rec.Name()
		}
	}
	for _, rec := range c.vms {
		if rec.State == Running && c.hostByName[rec.HostName].Disabled() {
			stranded++
			for _, h := range c.hosts {
				if rec.Template.AntiAffinity && members[rec.Template.Group+"/"+h.Name] != "" {
					continue
				}
				if h.CanFit(c.vmConfig(rec)) { // never its own host: that one is disabled
					c.mu.Unlock()
					t.Fatalf("step %d: %s left on disabled %s though %s can take it", step, rec.Name(), rec.HostName, h.Name)
				}
			}
		}
		switch rec.State {
		case Prolog, Boot, Running, Suspended, Migrating, Shutdown:
			if rec.VM == nil {
				c.mu.Unlock()
				t.Fatalf("step %d: %s in state %v with no guest", step, rec.Name(), rec.State)
			}
			h := rec.VM.Host()
			if h == nil {
				c.mu.Unlock()
				t.Fatalf("step %d: %s in state %v detached from any host", step, rec.Name(), rec.State)
			}
			u := want[h.Name]
			u.vcpus += rec.VM.Config.VCPUs
			u.mem += rec.VM.Config.MemoryBytes
			u.disk += rec.VM.Config.DiskBytes
			want[h.Name] = u
			if rec.State == Running && rec.VM.State() != virt.StateRunning {
				c.mu.Unlock()
				t.Fatalf("step %d: %s Running but guest is %v", step, rec.Name(), rec.VM.State())
			}
		case Done, Failed:
			if rec.VM != nil && rec.State == Done {
				c.mu.Unlock()
				t.Fatalf("step %d: done record %s still holds a guest", step, rec.Name())
			}
		}
	}
	hosts := append([]*virt.Host(nil), c.hosts...)
	c.mu.Unlock()
	if got := c.StuckEvacuations(); got != stranded {
		t.Fatalf("step %d: StuckEvacuations = %d, %d Running records are on disabled hosts", step, got, stranded)
	}

	for _, h := range hosts {
		vcpus, mem, disk := h.Usage()
		u := want[h.Name]
		// Failed hosts keep stale books (their VMs died in place);
		// skip the equality check for them.
		if h.Failed() {
			continue
		}
		if vcpus != u.vcpus || mem != u.mem || disk != u.disk {
			t.Fatalf("step %d: host %s books %d/%d/%d, records say %d/%d/%d",
				step, h.Name, vcpus, mem, disk, u.vcpus, u.mem, u.disk)
		}
		if mem > h.MemoryBytes || vcpus > h.Cores {
			t.Fatalf("step %d: host %s overcommitted (%d vcpu, %d mem)", step, h.Name, vcpus, mem)
		}
	}
}
