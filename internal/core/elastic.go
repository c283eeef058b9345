// Elasticity wiring: the closed loop between the web tier's transcode load
// and the IaaS layer's VM fleet. The nebula.ElasticController watches queue
// depth + in-flight conversions (via Site.TranscodeLoad) and boots/retires
// "farmnode" VMs; each VM that reaches Running joins the fleet's conversion
// pool, and scale-down drains it — no new conversions, in-flight ones finish
// (bounded by the drain deadline, past which they are expelled and
// transparently retried on surviving nodes) — before the VM terminates.
// A nebula.Rebalancer keeps per-host load spread bounded with budgeted live
// migrations. Both freeze while failure detection/recovery is in progress.
package core

import (
	"fmt"
	"time"

	"videocloud/internal/nebula"
	"videocloud/internal/virt"
	"videocloud/internal/web"
)

// ElasticConfig bounds the elastic transcode fleet. The control loop's
// cooldowns, step, guard hold and drain deadline are nebula.ElasticOptions'
// and nebula.DrainOptions' defaults, and the rebalancer's are nebula's.
type ElasticConfig struct {
	// MinFarmVMs / MaxFarmVMs bound the elastic fleet on top of the static
	// data VMs (defaults 0 / 2×PhysicalHosts).
	MinFarmVMs, MaxFarmVMs int
	// RebalanceInterval enables the host-load rebalancer when positive.
	RebalanceInterval time.Duration

	// rebalanceSpread is the max−min host memory-fraction gap the
	// rebalancer tolerates: 0 selects its default, a test tightens it.
	rebalanceSpread float64
}

const (
	// farmVMCapacity is the transcode demand (queued + in-flight
	// conversions) one farm VM absorbs.
	farmVMCapacity = 2
	// elasticInterval is the control-loop tick in virtual time.
	elasticInterval = 500 * time.Millisecond
)

// FarmVMPrefix names elastic transcode VMs (instances are farmnode-<id>).
const FarmVMPrefix = "farmnode"

// StartElastic arms the elasticity controller (and, if configured, the
// rebalancer). The control loop runs in virtual time: drive the cloud with
// RunFor. Call StopElastic (or Close) before WaitIdle.
func (vc *VideoCloud) StartElastic(cfg ElasticConfig) error {
	if vc.elastic != nil {
		return fmt.Errorf("core: elastic controller already started")
	}
	if cfg.MaxFarmVMs == 0 {
		cfg.MaxFarmVMs = 2 * vc.cfg.PhysicalHosts
	}

	tpl := nebula.Template{
		Name: FarmVMPrefix, VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 20 * gb,
		Image: BaseImage, Workload: virt.UniformWriter{Rate: 4 << 20, Util: 0.6},
		Context: map[string]string{"ROLE": "farmnode"},
		// The controller owns replacement: a farm VM lost to a host crash
		// is not requeued by recovery — the next tick re-provisions
		// capacity if demand still warrants it.
		Requeue: false,
	}
	farm := vc.site // the farm is the fleet's: any replica's methods act on the one pool
	ctrl, err := nebula.NewElasticController(vc.cloud, nebula.ElasticOptions{
		Template: tpl,
		Min:      cfg.MinFarmVMs, Max: cfg.MaxFarmVMs,
		InstanceCapacity: farmVMCapacity,
		// The static data VMs convert too; their capacity is the base the
		// fleet adds to, so an idle system scales to MinFarmVMs, not Max.
		BaseCapacity: farmVMCapacity * float64(len(vc.dataVMIDs)),
		Drain: nebula.DrainOptions{
			InFlight: farm.FarmNodeInFlight,
			OnDrain:  farm.DrainFarmNode,
			OnExpire: func(name string) { farm.ExpelFarmNode(name) },
		},
		Signal:   func(time.Duration) float64 { return float64(farm.TranscodeLoad()) },
		OnReady:  farm.AddFarmNode,
		OnRetire: farm.RemoveFarmNode,
	})
	if err != nil {
		return err
	}
	if err := ctrl.Start(elasticInterval); err != nil {
		return err
	}
	vc.elastic = ctrl
	if cfg.RebalanceInterval > 0 {
		vc.rebalancer = nebula.NewRebalancer(vc.cloud, cfg.rebalanceSpread)
		vc.rebalancer.Start(cfg.RebalanceInterval)
	}
	vc.reg.Counter("elastic_armed").Inc()
	return nil
}

// StopElastic halts the control loop and rebalancer (the fleet stays as it
// is; in-progress drains complete). Makes WaitIdle usable again. Idempotent.
func (vc *VideoCloud) StopElastic() {
	if vc.elastic != nil {
		vc.elastic.Stop()
		vc.elastic = nil
	}
	if vc.rebalancer != nil {
		vc.rebalancer.Stop()
		vc.rebalancer = nil
	}
}

// ElasticStatus summarises the elasticity subsystem for dashboards: the
// controller's fleet view, the signal it reads (queue depth + wait tail +
// per-node in-flight), drain outcomes, and rebalancer activity.
type ElasticStatus struct {
	// Enabled reports whether the controller is armed.
	Enabled bool
	// Controller snapshots fleet size, utilization, and decision counters.
	Controller nebula.ElasticStats
	// QueueDepth / WaitP99Seconds / ActiveConversions are the scaler's
	// input gauges (the dashboard reads the same numbers the controller
	// does).
	QueueDepth        int
	WaitP99Seconds    float64
	ActiveConversions int
	// FarmNodes is the conversion pool's per-node in-flight/draining view.
	FarmNodes []web.FarmNodeStat
	// Drain outcome counters (orchestrator-wide, autoscaler included).
	DrainsStarted, DrainsCompleted, DrainsCancelled, DrainsExpired int64
	// Requeues counts conversions retried after a node expulsion.
	Requeues int64
	// Rebalancer activity and the current host-load spread (max−min
	// memory fraction over schedulable hosts).
	RebalancePasses, RebalanceMigrations, RebalanceSkipped int64
	HostLoadSpread                                         float64
}

// elasticStatus builds the Status().Elastic block; ts is the fleet's
// TranscodeStats, the numbers the controller's Signal reads.
func (vc *VideoCloud) elasticStatus(ts web.TranscodeStats) ElasticStatus {
	creg := vc.cloud.Metrics()
	st := ElasticStatus{
		Enabled:             vc.elastic != nil,
		DrainsStarted:       creg.Counter("drains_started").Value(),
		DrainsCompleted:     creg.Counter("drains_completed").Value(),
		DrainsCancelled:     creg.Counter("drains_cancelled").Value(),
		DrainsExpired:       creg.Counter("drain_deadline_expired").Value(),
		RebalancePasses:     creg.Counter("rebalance_passes").Value(),
		RebalanceMigrations: creg.Counter("rebalance_migrations").Value(),
		RebalanceSkipped:    creg.Counter("rebalance_skipped_guard").Value(),
		QueueDepth:          ts.QueueDepth,
		WaitP99Seconds:      ts.WaitP99Seconds,
		ActiveConversions:   ts.ActiveConversions,
		FarmNodes:           ts.Nodes,
		Requeues:            ts.Requeues,
	}
	if vc.elastic != nil {
		st.Controller = vc.elastic.Stats()
	}
	_, _, st.HostLoadSpread = vc.cloud.HostLoadSpread()
	return st
}
