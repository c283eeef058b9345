package hdfs

import (
	"bytes"
	"testing"
	"time"
)

// fastHealer returns a healer tuned for test latency.
func fastHealer(c *Cluster) *Healer {
	return c.startHealer(2*time.Millisecond, 2, 5*time.Millisecond)
}

// waitUntil polls cond for up to 5s of wall clock.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A silently crashed DataNode must be detected (MarkDead never called by the
// test) and every affected block re-replicated back to target, with the data
// still readable byte-for-byte.
func TestHealerDetectsCrashAndReReplicates(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	data := payload(3*testBlock, 42)
	if err := cl.WriteFile("/film", data, 3); err != nil {
		t.Fatal(err)
	}
	h := fastHealer(c)
	defer h.Stop()

	if err := c.CrashDataNode("dn1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "dead-node detection", func() bool {
		return c.reg.Counter("datanodes_detected_dead").Value() == 1
	})
	waitUntil(t, "full re-replication", func() bool {
		return len(c.NameNode().UnderReplicatedAll()) == 0
	})
	got, err := cl.ReadFile("/film")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after healing")
	}
	st := h.Stats()
	if st.BlocksHealed == 0 {
		t.Fatal("no blocks recorded as healed")
	}
	if st.DetectLatency.Count == 0 || st.HealLatency.Count == 0 {
		t.Fatalf("latency histograms empty: %+v", st)
	}
}

// A node that comes back up after being declared dead must rejoin: its
// replicas count again and under-replication clears even when no spare node
// exists to copy to.
func TestHealerRejoinsRevivedNode(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(2*testBlock, 7), 3); err != nil {
		t.Fatal(err)
	}
	h := fastHealer(c)
	defer h.Stop()

	// All 3 nodes hold replicas; with one down there is nowhere to copy.
	c.CrashDataNode("dn2")
	waitUntil(t, "detection", func() bool {
		return c.reg.Counter("datanodes_detected_dead").Value() == 1
	})
	// Bring it back: the healer must re-register it and clear the debt.
	c.DataNode("dn2").SetDown(false)
	waitUntil(t, "rejoin", func() bool {
		return c.reg.Counter("datanodes_rejoined").Value() == 1
	})
	waitUntil(t, "replication restored", func() bool {
		return len(c.NameNode().UnderReplicatedAll()) == 0
	})
}

// Two replicas of the same block lost at once: the healer must copy twice
// (re-resolving sources) to restore a 3-target block on a 5-node cluster.
func TestHealerRestoresDoubleLoss(t *testing.T) {
	c := NewCluster(5, testBlock)
	cl := c.Client("")
	data := payload(testBlock, 9)
	if err := cl.WriteFile("/f", data, 3); err != nil {
		t.Fatal(err)
	}
	locs, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	h := fastHealer(c)
	defer h.Stop()
	c.CrashDataNode(locs[0].Locations[0])
	c.CrashDataNode(locs[0].Locations[1])
	waitUntil(t, "full re-replication after double loss", func() bool {
		return len(c.NameNode().UnderReplicatedAll()) == 0
	})
	got, err := cl.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after double-loss healing")
	}
}

// A corrupt replica reported by a reader must be healed by the background
// worker without any manual RepairAll.
func TestHealerRepairsCorruptReplica(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	data := payload(testBlock, 5)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		t.Fatal(err)
	}
	locs, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	h := fastHealer(c)
	defer h.Stop()
	// Corrupt one replica; a read fails over and reports it.
	bad := locs[0].Locations[0]
	if err := c.DataNode(bad).Corrupt(locs[0].ID); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.ReadFile("/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with corrupt replica: err=%v", err)
	}
	waitUntil(t, "corrupt replica re-replicated", func() bool {
		return len(c.NameNode().UnderReplicatedAll()) == 0
	})
}

// The healer must be quiet on a healthy cluster: no detections, no copies.
func TestHealerIdleOnHealthyCluster(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(2*testBlock, 3), 2); err != nil {
		t.Fatal(err)
	}
	h := fastHealer(c)
	time.Sleep(50 * time.Millisecond)
	h.Stop()
	st := h.Stats()
	if st.DataNodesDetectedDead != 0 || st.BlocksHealed != 0 {
		t.Fatalf("healer acted on a healthy cluster: %+v", st)
	}
	if st.PendingRepairs != 0 {
		t.Fatalf("PendingRepairs = %d", st.PendingRepairs)
	}
}
