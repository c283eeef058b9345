package experiments

import (
	"fmt"
	"time"

	"videocloud/internal/hdfs"
	"videocloud/internal/mapred"
	"videocloud/internal/metrics"
	"videocloud/internal/migrate"
	"videocloud/internal/nebula"
	"videocloud/internal/virt"
)

// E1cMigrationUnderContention extends E1 with a realistic complication the
// paper's testbed would face: the migration link is shared with the video
// service's own traffic. A 2 GiB VM migrates while 0-3 background bulk
// flows leave the same source NIC. Expected shape: total migration time
// grows as the fair-share bandwidth drops, while downtime stays bounded
// (the stop-and-copy phase is short regardless).
func E1cMigrationUnderContention() *metrics.Table {
	t := metrics.NewTable("E1c — live migration under background traffic (2 GiB VM, 1 GbE)",
		"background_flows", "total_s", "downtime_ms", "moved_gb")
	var prev time.Duration
	for _, flows := range []int{0, 1, 2, 3} {
		r := newMigrationRig(1e9 / 8)
		// Sink hosts for the background traffic.
		for i := 0; i < flows; i++ {
			r.net.AddHost(fmt.Sprintf("sink%d", i), 1e9/8, 1e9/8, 100*time.Microsecond)
		}
		vm := r.vm("vm", 2*gb, virt.HotspotWriter{Rate: 20 * mb})
		// Long-running bulk transfers from the migration source.
		for i := 0; i < flows; i++ {
			if _, err := r.net.Transfer(r.src.Name, fmt.Sprintf("sink%d", i), 64*gb, nil); err != nil {
				panic(err)
			}
		}
		var rep migrate.Report
		done := false
		m := migrate.New(r.sim, r.net)
		if err := m.Migrate(vm, r.dst, migrate.Config{Algorithm: migrate.PreCopy},
			func(rp migrate.Report) { rep = rp; done = true }); err != nil {
			panic(err)
		}
		r.sim.RunWhile(func() bool { return !done })
		check(rep.Success, "E1c: %d flows: %s", flows, rep.Reason)
		t.AddRow(flows, secs(rep.TotalTime), ms(rep.Downtime), float64(rep.TotalBytes)/float64(gb))
		if flows > 0 {
			check(rep.TotalTime > prev,
				"E1c: %d flows not slower than %d (%v <= %v)", flows, flows-1, rep.TotalTime, prev)
		}
		check(rep.Downtime < 2*time.Second, "E1c: downtime %v under contention", rep.Downtime)
		prev = rep.TotalTime
	}
	return t
}

// E8bSpeculativeExecution is the straggler ablation: the same wordcount on
// a 4-node cluster where one node is 4x degraded, with Hadoop-style
// speculative execution off and on. Expected shape: the degraded node
// stretches the job; speculation claws most of the stretch back by
// re-running the stragglers on healthy nodes; output is identical.
func E8bSpeculativeExecution() *metrics.Table {
	t := metrics.NewTable("E8b — speculative execution vs a 4x-degraded node",
		"cluster", "speculative", "backups", "job_s")
	const corpusBytes = 16 << 20
	corpus, _ := wordCorpus(corpusBytes)
	run := func(degraded, speculative bool) *mapred.JobResult {
		c := hdfs.NewCluster(4, 1<<20)
		storeCorpus(c, "/corpus.txt", corpus)
		cfg := mapred.Config{
			TaskOverhead:  100 * time.Millisecond,
			MapThroughput: 30e6, NetBandwidth: 40e6,
			SpeculativeExecution: speculative,
		}
		if degraded {
			cfg.TrackerSpeeds = map[string]float64{"dn0": 0.25}
		}
		e, err := mapred.NewEngine(c, []string{"dn0", "dn1", "dn2", "dn3"}, cfg)
		if err != nil {
			panic(err)
		}
		res, err := e.Run(wordCount([]string{"/corpus.txt"}))
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return res
	}
	healthy := run(false, false)
	slow := run(true, false)
	spec := run(true, true)
	t.AddRow("healthy", false, 0, secs(healthy.Duration))
	t.AddRow("1 node 4x slow", false, slow.SpeculativeTasks, secs(slow.Duration))
	t.AddRow("1 node 4x slow", true, spec.SpeculativeTasks, secs(spec.Duration))
	check(slow.Duration > healthy.Duration, "E8b: degraded node did not slow the job")
	check(spec.SpeculativeTasks > 0, "E8b: no backups launched")
	check(spec.Duration < slow.Duration,
		"E8b: speculation did not help (%v >= %v)", spec.Duration, slow.Duration)
	// Identical answers.
	check(len(spec.Output) == len(slow.Output), "E8b: output size differs")
	for i := range spec.Output {
		check(spec.Output[i] == slow.Output[i], "E8b: output differs at %d", i)
	}
	return t
}

// E6cConsolidation measures the paper's "economize power" goal as an
// operation on a running cloud: 8 small VMs striped across 8 hosts are
// live-migration-consolidated; freed hosts could be powered down. Expected
// shape: most hosts empty after the pass and every VM stays Running.
func E6cConsolidation() *metrics.Table {
	t := metrics.NewTable("E6c — power-saving consolidation via live migration",
		"phase", "hosts_in_use", "empty_hosts", "vms_running")
	c := placementCloud(nebula.StripingPolicy{})
	for i := 0; i < 8; i++ {
		if _, err := c.Submit(nebula.Template{
			Name: fmt.Sprintf("svc%d", i), VCPUs: 2, MemoryBytes: 2 * gb,
			DiskBytes: 10 * gb, Image: "base", Workload: virt.IdleWorkload{},
		}); err != nil {
			panic(err)
		}
	}
	c.WaitIdle()
	inUse := func() (int, int, int) {
		empty := len(c.EmptyHosts())
		running := 0
		for _, info := range c.Snapshot() {
			if info.State == nebula.Running {
				running++
			}
		}
		return len(c.Hosts()) - empty, empty, running
	}
	u, e, run0 := inUse()
	t.AddRow("striped", u, e, run0)
	check(u >= 8, "E6c: striping used only %d hosts", u)

	plan := c.Consolidate()
	c.WaitIdle()
	// A second pass finishes any chains the first enabled.
	c.Consolidate()
	c.WaitIdle()
	u2, e2, run2 := inUse()
	t.AddRow(fmt.Sprintf("after consolidation (%d moves)", len(plan.Moves)), u2, e2, run2)
	check(run2 == run0, "E6c: consolidation lost VMs (%d -> %d)", run0, run2)
	check(e2 > e, "E6c: no hosts freed")
	check(u2 < u, "E6c: hosts in use did not shrink (%d -> %d)", u, u2)
	return t
}
