package hdfs

import (
	"bytes"
	"slices"
	"testing"
)

// repairEntryPoints are the two ways a replication deficit gets closed: the
// synchronous RepairAll and the background Healer. They share the planner and
// the copier, so every repair scenario runs through both with one set of
// assertions.
var repairEntryPoints = []struct {
	name string
	heal func(t *testing.T, c *Cluster)
}{
	{"RepairAll", func(t *testing.T, c *Cluster) { c.RepairAll() }},
	{"Healer", func(t *testing.T, c *Cluster) {
		h := fastHealer(c)
		defer h.Stop()
		waitUntil(t, "healer convergence", func() bool {
			return len(c.NameNode().UnderReplicatedAll()) == 0 && h.PendingRepairs() == 0
		})
		if st := h.Stats(); st.RepairsAbandoned != 0 {
			t.Fatalf("healer abandoned %d repairs on a repairable block: %+v", st.RepairsAbandoned, st)
		}
	}},
}

// TestRepairAfterCorruptReplica: a replica with bit rot must not wedge repair,
// whether a reader reported it first or the repair copy itself reads it as the
// source, and the replacement lands off the node that served the bad bytes
// whenever another node can take it.
func TestRepairAfterCorruptReplica(t *testing.T) {
	cases := []struct {
		name      string
		nodes     int
		killOther bool // also kill a second holder, so the corrupt one is the first live source
		readFirst bool // a client read discovers and reports the corruption before repair runs
		wantOnBad bool
	}{
		{"corrupt source with a holder dead", 5, true, false, false},
		{"clean spare", 4, false, true, false},
		{"no spare", 3, false, true, true},
	}
	for _, tc := range cases {
		for _, entry := range repairEntryPoints {
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				c := NewCluster(tc.nodes, testBlock)
				cl := c.Client("")
				data := payload(testBlock, 31)
				if err := cl.WriteFile("/f", data, 3); err != nil {
					t.Fatal(err)
				}
				blocks, _ := cl.BlockLocations("/f")
				id, bad := blocks[0].ID, blocks[0].Locations[0]
				if err := c.DataNode(bad).Corrupt(id); err != nil {
					t.Fatal(err)
				}
				if tc.killOther {
					if err := c.KillDataNode(blocks[0].Locations[1]); err != nil {
						t.Fatal(err)
					}
				}
				if tc.readFirst {
					if got, err := cl.ReadFile("/f"); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("read with a corrupt replica: %v", err)
					}
				}

				entry.heal(t, c)

				if under := c.NameNode().UnderReplicatedAll(); len(under) != 0 {
					t.Fatalf("still under-replicated after repair: %v", under)
				}
				if c.Metrics().Counter("corrupt_replicas_reported").Value() < 1 {
					t.Fatal("corrupt replica never reported")
				}
				blocks, _ = cl.BlockLocations("/f")
				locs := blocks[0].Locations
				if len(locs) != 3 {
					t.Fatalf("live locations after repair = %v, want 3", locs)
				}
				if onBad := slices.Contains(locs, bad); onBad != tc.wantOnBad {
					t.Fatalf("locations after repair = %v; replica on the node that served bad bytes (%s) = %v, want %v",
						locs, bad, onBad, tc.wantOnBad)
				}
				// Every listed replica verifies, the re-hosted one included.
				for _, loc := range locs {
					if got, err := c.DataNode(loc).Read(id); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("replica on %s after repair: %v", loc, err)
					}
				}
				c.BlockCache().Invalidate(id)
				if got, err := cl.ReadFile("/f"); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("read after repair: %v", err)
				}
			})
		}
	}
}

// TestRepairRetriesFailedCopy: a copy that fails (its target went down without
// the NameNode knowing) is not lost work — the deficit is still in the block
// map, so the next repair finds it.
func TestRepairRetriesFailedCopy(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	data := payload(testBlock, 32)
	if err := cl.WriteFile("/f", data, 3); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	id := blocks[0].ID
	if err := c.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	task, _, ok := c.NameNode().PlanRepair(id)
	if !ok {
		t.Fatal("no repair planned after losing a holder with a spare node up")
	}
	if err := c.CrashDataNode(task.Dst); err != nil {
		t.Fatal(err)
	}
	if n := c.RepairAll(); n != 0 {
		t.Fatalf("RepairAll copied %d blocks onto a down target", n)
	}
	if c.Metrics().Counter("replication_failures").Value() == 0 {
		t.Fatal("failed copy not counted")
	}
	if under := c.NameNode().UnderReplicatedAll(); !slices.Equal(under, []BlockID{id}) {
		t.Fatalf("under-replicated after the failed copy = %v, want [%d]", under, id)
	}
	c.DataNode(task.Dst).SetDown(false)
	if n := c.RepairAll(); n != 1 {
		t.Fatalf("RepairAll after the target came back = %d copies, want 1", n)
	}
	if under := c.NameNode().UnderReplicatedAll(); len(under) != 0 {
		t.Fatalf("still under-replicated: %v", under)
	}
}

// TestDecommissionDrainsUnderHealer: with a Healer armed, StartDecommission is
// all it takes — the draining node's replicas stop counting, the blocks show
// as under-replicated, and the ordinary repair loop copies them off as soon as
// there is somewhere to put them. Reads are served the whole time.
func TestDecommissionDrainsUnderHealer(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(4*testBlock, 33)
	if err := cl.WriteFile("/film", data, 3); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/film")
	var ids []BlockID
	for _, b := range blocks {
		ids = append(ids, b.ID)
	}
	mustRead := func(when string) {
		t.Helper()
		c.BlockCache().Invalidate(ids...)
		if got, err := cl.ReadFile("/film"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %s: %v", when, err)
		}
	}
	h := fastHealer(c)
	defer h.Stop()

	// Every node holds every block, so the drain has nowhere to go yet.
	const victim = "dn1"
	nn := c.NameNode()
	if err := nn.StartDecommission(victim); err != nil {
		t.Fatal(err)
	}
	if under := nn.UnderReplicatedAll(); !slices.Equal(under, ids) {
		t.Fatalf("under-replicated while draining = %v, want the draining node's blocks %v", under, ids)
	}
	mustRead("while draining")

	c.AddDataNode("dn3")
	waitUntil(t, "drain onto the new node", func() bool {
		return len(nn.UnderReplicatedAll()) == 0 && h.PendingRepairs() == 0
	})
	mustRead("after the drain")
	// The healer would re-register a retired node whose process is still
	// up; Cluster.Decommission takes it down, here the healer just stops.
	h.Stop()
	if err := nn.FinishDecommission(victim); err != nil {
		t.Fatal(err)
	}
	mustRead("after retirement")
	blocks, _ = cl.BlockLocations("/film")
	for _, b := range blocks {
		if len(b.Locations) != 3 || slices.Contains(b.Locations, victim) {
			t.Fatalf("block %d on %v after retirement, want 3 replicas off %s", b.ID, b.Locations, victim)
		}
	}
}
