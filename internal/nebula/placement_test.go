package nebula

import (
	"testing"
	"time"
)

// These tests pin the defects that six separate destination pickers and a
// stuck-evacuation queue hid; each fails at the commit before the pickers
// became destinationLocked and the queue became a derivation.

// antiAffinePair boots a two-member anti-affine group under striping on n
// hosts and returns the members' IDs.
func antiAffinePair(t *testing.T, n int) (*Cloud, []int) {
	t.Helper()
	c := testCloud(t, n, Options{})
	var tpls []Template
	for _, name := range []string{"dn-a", "dn-b"} {
		tpl := webTemplate(name)
		tpl.AntiAffinity = true
		tpls = append(tpls, tpl)
	}
	ids, err := c.SubmitGroup("hdfs", tpls)
	if err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	return c, ids
}

// requireApart fails if two group members are resident on one host.
func requireApart(t *testing.T, c *Cloud, ids []int) {
	t.Helper()
	hosts := map[string]int{}
	for _, id := range ids {
		rec, _ := c.VM(id)
		if rec.State != Running {
			t.Fatalf("%s state = %v", rec.Name(), rec.State)
		}
		hosts[rec.HostName]++
	}
	if len(hosts) != len(ids) {
		t.Fatalf("anti-affine members share a host: hosts = %v", hosts)
	}
}

func TestConsolidateKeepsAntiAffineMembersApart(t *testing.T) {
	c, ids := antiAffinePair(t, 3)
	c.Consolidate()
	c.WaitIdle()
	requireApart(t, c, ids)
}

// A member that is mid-migration already owns its destination: a second
// member must not be sent there because the first one's record still names
// the host it is leaving.
func TestAntiAffinityCountsMigrationDestination(t *testing.T) {
	c, ids := antiAffinePair(t, 3)
	a, _ := c.VM(ids[0])
	b, _ := c.VM(ids[1])
	if _, err := c.Evacuate(a.HostName); err != nil {
		t.Fatal(err)
	}
	if a.State != Migrating {
		t.Fatalf("first member state = %v, want migrating", a.State)
	}
	if _, err := c.Evacuate(b.HostName); err == nil {
		t.Fatal("second member had nowhere anti-affine to go, yet evacuation reported no gap")
	}
	c.WaitIdle()
	requireApart(t, c, ids)
}

// A guest still in Prolog/Boot when its host enters maintenance is not
// Running yet, so Evacuate cannot move it; once it is, it must not stay.
func TestEvacuateMovesGuestThatBootsAfterwards(t *testing.T) {
	c := testCloud(t, 2, Options{Policy: FixedPolicy{Host: "node1"}})
	id, _ := c.Submit(webTemplate("late"))
	c.RunFor(time.Second)
	rec, _ := c.VM(id)
	if rec.State != Prolog && rec.State != Boot {
		t.Fatalf("state = %v, want mid-provisioning", rec.State)
	}
	c.policy = StripingPolicy{}
	if started, err := c.Evacuate("node1"); started != 0 || err != nil {
		t.Fatalf("Evacuate = %d, %v; nothing was Running yet", started, err)
	}
	c.WaitIdle()
	if rec.State != Running || rec.HostName != "node2" {
		t.Fatalf("guest ended %v on %s, want running on node2", rec.State, rec.HostName)
	}
	if n := c.StuckEvacuations(); n != 0 {
		t.Fatalf("StuckEvacuations = %d", n)
	}
}

// The same for a guest that was Suspended through the evacuation and is
// resumed on the maintenance host.
func TestEvacuateMovesGuestResumedAfterwards(t *testing.T) {
	c := testCloud(t, 2, Options{Policy: FixedPolicy{Host: "node1"}})
	id, _ := c.Submit(webTemplate("napper"))
	c.WaitIdle()
	c.policy = StripingPolicy{}
	if err := c.Suspend(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evacuate("node1"); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	if err := c.Resume(id); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	rec, _ := c.VM(id)
	if rec.State != Running || rec.HostName != "node2" {
		t.Fatalf("guest ended %v on %s, want running on node2", rec.State, rec.HostName)
	}
}

// An evacuation migration that fails although its destination is alive must
// stay on the books, be retried a bounded number of times, and be picked up
// again when capacity next changes — without spinning WaitIdle meanwhile.
func TestFailedEvacuationMigrationStaysCountedAndIsRetried(t *testing.T) {
	c := testCloud(t, 2, Options{
		Policy:   FixedPolicy{Host: "node1"},
		Recovery: RecoveryOptions{MigrationDeadline: time.Millisecond},
	})
	id, _ := c.Submit(webTemplate("web"))
	c.WaitIdle()
	c.policy = StripingPolicy{}

	if started, err := c.Evacuate("node1"); started != 1 || err != nil {
		t.Fatalf("Evacuate = %d, %v", started, err)
	}
	c.WaitIdle() // must terminate: every copy misses the 1ms deadline
	rec, _ := c.VM(id)
	if rec.State != Running || rec.HostName != "node1" {
		t.Fatalf("guest %v on %s, want still running on node1", rec.State, rec.HostName)
	}
	if n := c.StuckEvacuations(); n != 1 {
		t.Fatalf("StuckEvacuations = %d, want the failed evacuee counted", n)
	}
	reg := c.Metrics()
	attempts := int64(1 + c.opts.Recovery.MigrationRetries)
	if got := reg.Counter("migrations_failed").Value(); got != attempts {
		t.Fatalf("migrations_failed = %d, want %d (one start + MigrationRetries)", got, attempts)
	}

	// A capacity event with the fault still present: one more bounded burst.
	if _, err := c.AddHost("node3", 8, 1e9, 16*gb, 500*gb); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	if got := reg.Counter("migrations_failed").Value(); got != 2*attempts {
		t.Fatalf("migrations_failed = %d after a capacity event, want %d", got, 2*attempts)
	}

	// Fault gone: the next capacity event finishes the evacuation.
	c.Driver().(interface{ SetMigrationDeadline(time.Duration) }).SetMigrationDeadline(0)
	if _, err := c.AddHost("node4", 8, 1e9, 16*gb, 500*gb); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	if rec.State != Running || rec.HostName == "node1" {
		t.Fatalf("guest %v on %s, want evacuated", rec.State, rec.HostName)
	}
	if n := c.StuckEvacuations(); n != 0 {
		t.Fatalf("StuckEvacuations = %d after the retry", n)
	}
}

// Evacuation asks the same question first placement does, so an owner-aware
// policy sees the tenant's footprint there too: plain striping would pick
// the roomier host b, where the tenant already runs a VM.
func TestEvacuationHonoursTenantFootprint(t *testing.T) {
	c := New(Options{})
	if _, err := c.Catalog().Register("ubuntu-10.04", 2*gb, 7); err != nil {
		t.Fatal(err)
	}
	c.AddHost("a", 8, 1e9, 16*gb, 500*gb)
	c.AddHost("b", 8, 1e9, 64*gb, 500*gb)
	c.AddHost("c", 8, 1e9, 16*gb, 500*gb)
	var ids []int
	for _, host := range []string{"a", "b"} {
		c.policy = FixedPolicy{Host: host}
		id, err := c.Submit(ownedTemplate("web", "acme"))
		if err != nil {
			t.Fatal(err)
		}
		c.WaitIdle()
		ids = append(ids, id)
	}
	c.policy = TenantSpreadPolicy{}
	if _, err := c.Evacuate("a"); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	rec, _ := c.VM(ids[0])
	if rec.State != Running || rec.HostName != "c" {
		t.Fatalf("evacuee %v on %s, want running on c (tenant already on b)", rec.State, rec.HostName)
	}
}
