package nebula

import (
	"strings"
	"testing"
	"time"
)

// A silent crash (CrashHost) must be noticed by the heartbeat monitor and
// the Requeue VM restarted on a surviving host, with the detect latency and
// recovery time recorded.
func TestHeartbeatDetectsCrashAndRestartsVM(t *testing.T) {
	c := testCloud(t, 2, Options{Policy: FixedPolicy{Host: "node1"}})
	tpl := webTemplate("ha")
	tpl.Requeue = true
	id, _ := c.Submit(tpl)
	c.WaitIdle()
	c.policy = StripingPolicy{}

	var detected string
	c.Monitor().OnHostFailure = func(host string, since time.Duration) { detected = host }
	c.Monitor().EnableFailureDetection()
	if err := c.CrashHost("node1"); err != nil {
		t.Fatal(err)
	}
	// 3 missed beats at 500ms + 1s restart backoff + reprovision well
	// inside a minute of virtual time.
	c.RunFor(time.Minute)
	c.Monitor().DisableFailureDetection()
	c.WaitIdle()

	if detected != "node1" {
		t.Fatalf("OnHostFailure saw %q, want node1", detected)
	}
	rec, _ := c.VM(id)
	if rec.State != Running || rec.HostName != "node2" {
		t.Fatalf("VM state=%v host=%s (%s), want running on node2",
			rec.State, rec.HostName, rec.FailReason)
	}
	if rec.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rec.Restarts)
	}
	reg := c.Metrics()
	if got := reg.Counter("host_failures_detected").Value(); got != 1 {
		t.Fatalf("host_failures_detected = %d", got)
	}
	if got := reg.Counter("vms_auto_restarted").Value(); got != 1 {
		t.Fatalf("vms_auto_restarted = %d", got)
	}
	if reg.Histogram("vm_recovery_seconds").Count() != 1 {
		t.Fatal("vm_recovery_seconds not observed")
	}
	if reg.Histogram("host_detect_seconds").Count() != 1 {
		t.Fatal("host_detect_seconds not observed")
	}
}

// A hung host (alive but silent) must be fenced and recovered exactly like
// a crashed one.
func TestHeartbeatDetectsHungHost(t *testing.T) {
	c := testCloud(t, 2, Options{Policy: FixedPolicy{Host: "node1"}})
	tpl := webTemplate("ha")
	tpl.Requeue = true
	id, _ := c.Submit(tpl)
	c.WaitIdle()
	c.policy = StripingPolicy{}

	c.Monitor().EnableFailureDetection()
	if err := c.Monitor().SetUnresponsive("node1", true); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Minute)
	c.Monitor().DisableFailureDetection()
	c.WaitIdle()

	h, _ := c.Host("node1")
	if !h.Failed() {
		t.Fatal("hung host was not fenced")
	}
	rec, _ := c.VM(id)
	if rec.State != Running || rec.HostName != "node2" {
		t.Fatalf("VM state=%v host=%s, want running on node2", rec.State, rec.HostName)
	}
}

// A healthy cloud must see zero detections no matter how long the monitor
// watches.
func TestHeartbeatNoFalsePositives(t *testing.T) {
	c := testCloud(t, 3, Options{})
	for i := 0; i < 3; i++ {
		c.Submit(webTemplate("web"))
	}
	c.WaitIdle()
	c.Monitor().EnableFailureDetection()
	c.RunFor(10 * time.Minute)
	c.Monitor().DisableFailureDetection()
	if got := c.Metrics().Counter("host_failures_detected").Value(); got != 0 {
		t.Fatalf("detected %d failures on a healthy cloud", got)
	}
}

// Restarts are capped: a VM whose hosts keep dying eventually fails for
// good instead of looping forever.
func TestRestartBudgetExhausted(t *testing.T) {
	c := testCloud(t, 5, Options{})
	c.restartBudget = 2
	tpl := webTemplate("ha")
	tpl.Requeue = true
	id, _ := c.Submit(tpl)
	c.WaitIdle()

	for i := 0; i < 3; i++ {
		rec, _ := c.VM(id)
		if rec.State != Running {
			break
		}
		if err := c.FailHost(rec.HostName); err != nil {
			t.Fatal(err)
		}
		c.WaitIdle()
	}
	rec, _ := c.VM(id)
	if rec.State != Failed {
		t.Fatalf("state = %v after exceeding restart budget", rec.State)
	}
	if !strings.Contains(rec.FailReason, "restart budget exhausted") {
		t.Fatalf("FailReason = %q", rec.FailReason)
	}
	if got := c.Metrics().Counter("vms_restart_exhausted").Value(); got != 1 {
		t.Fatalf("vms_restart_exhausted = %d", got)
	}
}

// An evacuation that strands a VM for lack of capacity must complete later,
// once another VM's shutdown frees room — without operator action.
func TestStuckEvacuationRetriesWhenCapacityFrees(t *testing.T) {
	// Two hosts, 16 GB each. A 10 GB VM on node1; a 10 GB VM on node2
	// blocks the evacuation until it shuts down.
	c := New(Options{Policy: FixedPolicy{Host: "node1"}})
	if _, err := c.Catalog().Register("ubuntu-10.04", 2*gb, 7); err != nil {
		t.Fatal(err)
	}
	c.AddHost("node1", 8, 1e9, 16*gb, 500*gb)
	c.AddHost("node2", 8, 1e9, 16*gb, 500*gb)
	tpl := webTemplate("big")
	tpl.MemoryBytes = 10 * gb
	evacuee, _ := c.Submit(tpl)
	c.WaitIdle()
	c.policy = FixedPolicy{Host: "node2"}
	blocker, _ := c.Submit(func() Template {
		t := webTemplate("blocker")
		t.MemoryBytes = 10 * gb
		return t
	}())
	c.WaitIdle()
	c.policy = StripingPolicy{}

	if _, err := c.Evacuate("node1"); err == nil {
		t.Fatal("evacuation should report the stuck VM")
	}
	if c.StuckEvacuations() != 1 {
		t.Fatalf("StuckEvacuations = %d, want 1", c.StuckEvacuations())
	}
	if got := c.Metrics().Counter("evacuations_stuck").Value(); got != 1 {
		t.Fatalf("evacuations_stuck = %d", got)
	}

	// Free capacity on node2; the scheduler must finish the evacuation.
	if err := c.Shutdown(blocker); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()

	rec, _ := c.VM(evacuee)
	if rec.State != Running || rec.HostName != "node2" {
		t.Fatalf("evacuee state=%v host=%s, want running on node2", rec.State, rec.HostName)
	}
	if c.StuckEvacuations() != 0 {
		t.Fatalf("StuckEvacuations = %d after retry", c.StuckEvacuations())
	}
	if got := c.Metrics().Counter("evacuations_retried").Value(); got != 1 {
		t.Fatalf("evacuations_retried = %d", got)
	}
}

// A destination that dies mid-copy must not end the story: the migration is
// re-aimed at a third host automatically.
func TestMigrationRescheduledWhenDestinationDies(t *testing.T) {
	c := testCloud(t, 3, Options{Policy: FixedPolicy{Host: "node1"}})
	id, _ := c.Submit(webTemplate("web"))
	c.WaitIdle()
	c.policy = StripingPolicy{}

	if err := c.LiveMigrate(id, "node2"); err != nil {
		t.Fatal(err)
	}
	// Kill the destination while the copy is in flight.
	c.RunFor(time.Second)
	if err := c.FailHost("node2"); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()

	rec, _ := c.VM(id)
	if rec.State != Running || rec.HostName != "node3" {
		t.Fatalf("VM state=%v host=%s (last migration: %+v), want running on node3",
			rec.State, rec.HostName, rec.LastMigration)
	}
	reg := c.Metrics()
	if got := reg.Counter("migrations_rescheduled").Value(); got != 1 {
		t.Fatalf("migrations_rescheduled = %d", got)
	}
	if got := reg.Counter("migrations_succeeded").Value(); got != 1 {
		t.Fatalf("migrations_succeeded = %d", got)
	}
}
