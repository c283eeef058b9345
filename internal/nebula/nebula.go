// Package nebula is the OpenNebula stand-in: a virtual-infrastructure engine
// that "enables the dynamic deployment and reallocation of virtual machines
// in a pool of physical resources" (paper §III-A). It reproduces the paper's
// three-component decomposition:
//
//   - the Core — a centralized component managing the VM life cycle
//     (pending → prolog → boot → running → migrate/shutdown) and exposing
//     management and monitoring interfaces (api.go, monitor.go);
//   - the Capacity Manager — pluggable placement policies (scheduler.go);
//   - Virtualized Access Drivers — the hypervisor abstraction (driver.go).
//
// The cloud owns a discrete-event simulator: image staging, boot, and
// migration all take virtual time, and callers drive progress with RunFor /
// WaitIdle. All mutation happens under one mutex, so the HTTP management API
// can serve a paced real-time simulation concurrently.
package nebula

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"videocloud/internal/image"
	"videocloud/internal/metrics"
	"videocloud/internal/migrate"
	"videocloud/internal/simnet"
	"videocloud/internal/simtime"
	"videocloud/internal/trace"
	"videocloud/internal/virt"
)

// Errors returned by cloud operations.
var (
	ErrNoSuchVM   = errors.New("nebula: no such VM")
	ErrNoSuchHost = errors.New("nebula: no such host")
	ErrBadState   = errors.New("nebula: operation invalid in VM state")
)

// Options configures a Cloud. The zero value selects the paper's deployment:
// KVM driver, striping placement, GbE hosts, a 10 GbE front-end holding the
// image datastore.
type Options struct {
	// Policy is the Capacity Manager policy (default StripingPolicy).
	Policy Policy
	// Driver constructs the hypervisor driver (default NewKVMDriver).
	Driver func(*migrate.Migrator) Driver
	// HostBandwidth is per-node NIC speed in bytes/s (default 1 GbE).
	HostBandwidth float64
	// FrontendBandwidth is the image-repository NIC (default 10 GbE).
	FrontendBandwidth float64
	// Latency is per-NIC propagation delay (default 100µs).
	Latency time.Duration
	// COWStageBytes is the metadata moved when provisioning a COW clone
	// (default 4 MiB: the qcow2 header plus L1/L2 tables).
	COWStageBytes int64
	// Recovery tunes heartbeat failure detection and automatic VM
	// recovery (selfheal.go). Zero values select defaults.
	Recovery RecoveryOptions
}

func (o Options) withDefaults() Options {
	if o.Policy == nil {
		o.Policy = StripingPolicy{}
	}
	if o.Driver == nil {
		o.Driver = NewKVMDriver
	}
	if o.HostBandwidth == 0 {
		o.HostBandwidth = 1 * simnet.Gbps
	}
	if o.FrontendBandwidth == 0 {
		o.FrontendBandwidth = 10 * simnet.Gbps
	}
	if o.Latency == 0 {
		o.Latency = 100 * time.Microsecond
	}
	if o.COWStageBytes == 0 {
		o.COWStageBytes = 4 << 20
	}
	o.Recovery = o.Recovery.withDefaults()
	return o
}

// FrontendName is the simnet name of the front-end node that runs the
// orchestrator core and stores the image datastore.
const FrontendName = "frontend"

// Transition is one entry in a VM's state history.
type Transition struct {
	At       time.Duration
	From, To VMState
}

// VMRecord is the orchestrator's bookkeeping for one VM instance.
type VMRecord struct {
	ID       int
	Template Template
	State    VMState
	HostName string
	IP       string
	// DiskImage is the catalog name of the instance's cloned disk.
	DiskImage string
	// VM is the hypervisor-level object once created.
	VM *virt.VM
	// StateLog records every transition with its virtual time.
	StateLog []Transition
	// FailReason explains a Failed state.
	FailReason string
	// LastMigration holds the most recent migration report, if any.
	LastMigration *migrate.Report
	// Restarts counts automatic recoveries after host failures.
	Restarts int

	migRetries  int           // consecutive re-aimed migration attempts
	migReason   migrateReason // why the current (or last) migration was started
	migratingTo string        // destination host while Migrating, else ""
	recovering  bool          // requeued by recovery; next Running closes MTTR
	failedAt    time.Duration // virtual time of the host failure that requeued it

	admitted     bool          // holds a TenantGate VM slot until terminal
	runningSince time.Duration // start of the current Running interval

	// span is the open lifecycle trace (nebula.vm for provisioning,
	// nebula.migration / nebula.recovery / ... for later episodes); it is
	// closed when the episode reaches a settled state (Running, Done,
	// Failed). stateSpan is the child covering the current VM state.
	span      *trace.Span
	stateSpan *trace.Span
}

// Name returns the instance's unique hypervisor-level name.
func (r *VMRecord) Name() string { return fmt.Sprintf("%s-%d", r.Template.Name, r.ID) }

// Cloud is the orchestrator core plus the simulated testbed it manages.
type Cloud struct {
	mu      sync.Mutex
	sim     *simtime.Simulator
	net     *simnet.Network
	catalog *image.Catalog
	mig     *migrate.Migrator
	driver  Driver
	policy  Policy
	opts    Options
	reg     *metrics.Registry

	hosts      []*virt.Host
	hostByName map[string]*virt.Host
	vms        map[int]*VMRecord
	nextID     int
	pending    []int
	groups     map[string][]int
	ipNext     int
	monitor    *Monitor
	schedKick  bool
	tracer     *trace.Tracer // nil disables lifecycle tracing

	draining      map[int]*drainJob // record ID → in-progress graceful drain
	lastFailureAt time.Duration     // virtual time of the most recent host failure
	sawFailure    bool              // lastFailureAt is meaningful (failures at t=0 count)
	gate          TenantGate        // nil = no tenant admission/metering
}

// New creates a cloud with a front-end node and an empty host pool.
func New(opts Options) *Cloud {
	opts = opts.withDefaults()
	sim := simtime.NewSimulator()
	net := simnet.New(sim)
	net.AddHost(FrontendName, opts.FrontendBandwidth, opts.FrontendBandwidth, opts.Latency)
	mig := migrate.New(sim, net)
	c := &Cloud{
		sim: sim, net: net,
		catalog: image.NewCatalog(),
		mig:     mig,
		driver:  opts.Driver(mig),
		policy:  opts.Policy,
		opts:    opts,
		reg:     metrics.NewRegistry(),

		hostByName: make(map[string]*virt.Host),
		vms:        make(map[int]*VMRecord),
		groups:     make(map[string][]int),
		ipNext:     1,
		draining:   make(map[int]*drainJob),
	}
	if opts.Recovery.MigrationDeadline > 0 {
		if dd, ok := c.driver.(interface{ SetMigrationDeadline(time.Duration) }); ok {
			dd.SetMigrationDeadline(opts.Recovery.MigrationDeadline)
		}
	}
	c.monitor = newMonitor(c)
	return c
}

// Network exposes the simulated fabric.
func (c *Cloud) Network() *simnet.Network { return c.net }

// Catalog exposes the image datastore.
func (c *Cloud) Catalog() *image.Catalog { return c.catalog }

// Metrics exposes orchestrator counters.
func (c *Cloud) Metrics() *metrics.Registry { return c.reg }

// Monitor returns the host-monitoring subsystem.
func (c *Cloud) Monitor() *Monitor { return c.monitor }

// SetTracer attaches a tracer; VM lifecycle episodes (provisioning,
// migration, suspend, shutdown, recovery requeues) record root traces with
// one child span per state, stamped in the virtual clock domain. Set it
// before submitting VMs whose boot should be captured.
func (c *Cloud) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// Now returns current virtual time.
func (c *Cloud) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sim.Now()
}

// RunFor advances virtual time by d, executing due events.
func (c *Cloud) RunFor(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sim.RunFor(d)
}

// WaitIdle runs the simulation until no events remain (all in-flight
// provisioning, boots and migrations settled). Periodic monitoring must be
// disabled first, or the queue never drains.
func (c *Cloud) WaitIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sim.Run()
}

// AddHost registers a physical node with the given capacity and attaches it
// to the fabric.
func (c *Cloud) AddHost(name string, cores int, coreRate float64, memBytes, diskBytes int64) (*virt.Host, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.hostByName[name]; dup {
		return nil, fmt.Errorf("nebula: duplicate host %q", name)
	}
	h := virt.NewHost(name, cores, coreRate, memBytes, diskBytes, 0)
	c.net.AddHost(name, c.opts.HostBandwidth, c.opts.HostBandwidth, c.opts.Latency)
	c.hosts = append(c.hosts, h)
	c.hostByName[name] = h
	c.kickScheduler() // new capacity may unblock queued VMs
	return h, nil
}

// Hosts returns the host pool sorted by name.
func (c *Cloud) Hosts() []*virt.Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]*virt.Host(nil), c.hosts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Submit queues a template for deployment and returns the instance ID.
// Scheduling happens asynchronously in virtual time; drive with RunFor or
// WaitIdle.
func (c *Cloud) Submit(tpl Template) (int, error) {
	if err := tpl.validate(); err != nil {
		return 0, err
	}
	if _, err := c.catalog.Get(tpl.Image); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitLocked(tpl)
}

// submitLocked queues a template with c.mu held (the auto-scaler submits
// from inside simulation callbacks, which already hold the lock).
func (c *Cloud) submitLocked(tpl Template) (int, error) {
	if err := tpl.validate(); err != nil {
		return 0, err
	}
	admitted := false
	if c.gate != nil && tpl.Owner != "" {
		if err := c.gate.AdmitVM(tpl.Owner); err != nil {
			c.reg.Counter("vms_quota_rejected").Inc()
			return 0, err
		}
		admitted = true
	}
	c.nextID++
	rec := &VMRecord{ID: c.nextID, Template: tpl, State: Pending, admitted: admitted}
	rec.StateLog = append(rec.StateLog, Transition{At: c.sim.Now(), To: Pending})
	c.traceTransition(rec, Pending)
	c.vms[rec.ID] = rec
	c.pending = append(c.pending, rec.ID)
	if tpl.Group != "" {
		c.groups[tpl.Group] = append(c.groups[tpl.Group], rec.ID)
	}
	c.reg.Counter("vms_submitted").Inc()
	c.kickScheduler()
	return rec.ID, nil
}

// SubmitGroup submits templates as one service group: each template's Group
// is set to name, and when all members reach Running each VM's context is
// populated with every member's address (the paper's "group of related VMs
// becomes a first-class entity ... the core also handles context information
// delivery").
func (c *Cloud) SubmitGroup(name string, tpls []Template) ([]int, error) {
	ids := make([]int, 0, len(tpls))
	for _, tpl := range tpls {
		tpl.Group = name
		id, err := c.Submit(tpl)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// VM returns the record for id. The returned pointer is live; read-only use
// outside the cloud's own callbacks should prefer Snapshot.
func (c *Cloud) VM(id int) (*VMRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	return rec, nil
}

// VMInfo is a race-free copy of a record's externally interesting state.
type VMInfo struct {
	ID       int
	Name     string
	State    VMState
	Host     string
	IP       string
	Group    string
	Owner    string
	MemBytes int64
	VCPUs    int
}

// Snapshot returns VMInfo for every instance, sorted by ID.
func (c *Cloud) Snapshot() []VMInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]VMInfo, 0, len(c.vms))
	for _, rec := range c.vms {
		out = append(out, VMInfo{
			ID: rec.ID, Name: rec.Name(), State: rec.State,
			Host: rec.HostName, IP: rec.IP, Group: rec.Template.Group,
			Owner:    rec.Template.Owner,
			MemBytes: rec.Template.MemoryBytes, VCPUs: rec.Template.VCPUs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PendingCount returns how many instances await placement.
func (c *Cloud) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// ---- internal state machine (all methods below run with c.mu held) ----

func (c *Cloud) setState(rec *VMRecord, to VMState) {
	c.accountTransition(rec, to)
	from := rec.State
	rec.StateLog = append(rec.StateLog, Transition{At: c.sim.Now(), From: from, To: to})
	rec.State = to
	c.traceTransition(rec, to)
	// A guest that was booting, suspended or draining while its host went
	// into maintenance has just become something the evacuation pass moves.
	// A failed migration lands here too but must not kick: nothing changed
	// that would make the next attempt succeed, and the pass would spin.
	if from != Migrating && c.needsEvacuationLocked(rec) {
		c.kickScheduler()
	}
}

// traceTransition maintains the record's lifecycle trace across a state
// change. Episodes open lazily on the first unsettled state (Pending,
// Prolog, Migrating, ...) and close when the VM settles (Running, Done,
// Failed), so a long-running VM yields one complete stored trace per
// lifecycle episode instead of one eternally open trace. All spans are
// stamped in the virtual clock domain explicitly — the tracer never reads
// the sim clock, which would deadlock under c.mu.
func (c *Cloud) traceTransition(rec *VMRecord, to VMState) {
	if rec.span == nil && !c.tracer.Enabled() {
		return
	}
	now := c.sim.Now()
	if rec.stateSpan != nil {
		rec.stateSpan.EndAtSim(now)
		rec.stateSpan = nil
	}
	settled := to == Running || to == Done || to == Failed
	if rec.span == nil {
		if settled {
			return // e.g. tracer attached mid-episode
		}
		rec.span = c.tracer.StartRoot(episodeName(rec, to))
		if rec.span == nil {
			return
		}
		rec.span.AnnotateInt("vm_id", int64(rec.ID))
		rec.span.Annotate("vm", rec.Name())
		rec.span.SetSimStart(now)
	}
	if settled {
		if to == Failed {
			rec.span.Annotate("fail_reason", rec.FailReason)
			rec.span.SetError(errors.New(rec.FailReason))
		}
		rec.span.EndAtSim(now)
		rec.span = nil
		return
	}
	rec.stateSpan = rec.span.StartChild("nebula." + to.String())
	rec.stateSpan.SetSimStart(now)
}

// episodeName names the lifecycle trace opened by a transition into an
// unsettled state: first provisioning is nebula.vm, a recovery requeue is
// nebula.recovery, and operator actions are named for the operation.
func episodeName(rec *VMRecord, to VMState) string {
	switch {
	case to == Pending && rec.recovering:
		return "nebula.recovery"
	case to == Draining:
		return "vm.drain"
	case to == Migrating && rec.migReason == migrateRebalance:
		return "vm.rebalance"
	case to == Migrating:
		return "nebula.migration"
	case to == Suspended:
		return "nebula.suspend"
	case to == Shutdown:
		return "nebula.shutdown"
	}
	return "nebula.vm"
}

// kickScheduler arranges a scheduling pass at the current virtual time.
// Passes are batched: many submits in one instant cause one pass.
func (c *Cloud) kickScheduler() {
	if c.schedKick {
		return
	}
	c.schedKick = true
	c.sim.Schedule(0, func() {
		c.schedKick = false
		c.schedulePass()
	})
}

// schedulePass tries to place every pending instance, FIFO, then moves
// whatever still has to leave a host in maintenance now that capacity may
// have changed.
func (c *Cloud) schedulePass() {
	var still []int
	for _, id := range c.pending {
		rec := c.vms[id]
		if rec == nil || rec.State != Pending {
			continue
		}
		if !c.deploy(rec) {
			still = append(still, id)
		}
	}
	c.pending = still
	for _, h := range c.hosts {
		if h.Disabled() {
			started, _ := c.evacuateLocked(h)
			c.reg.Counter("evacuations_retried").Add(int64(started))
		}
	}
}

// vmConfig builds the hypervisor config for a record.
func (c *Cloud) vmConfig(rec *VMRecord) virt.VMConfig {
	mode := rec.Template.Mode
	if mode == virt.Native {
		mode = c.driver.DefaultMode()
	}
	return virt.VMConfig{
		Name:        rec.Name(),
		VCPUs:       rec.Template.VCPUs,
		MemoryBytes: rec.Template.MemoryBytes,
		DiskBytes:   rec.Template.DiskBytes,
		Mode:        mode,
		Image:       rec.Template.Image,
	}
}

// deploy runs placement and, on success, starts the prolog→boot→running
// pipeline. It reports whether the record left Pending.
func (c *Cloud) deploy(rec *VMRecord) bool {
	host := c.destinationLocked(rec, c.hosts, c.policy)
	if host == nil {
		c.reg.Counter("placement_deferrals").Inc()
		return false
	}
	vm, err := c.driver.Create(host, c.vmConfig(rec))
	if err != nil {
		// Lost a race against capacity; stay pending.
		c.reg.Counter("placement_deferrals").Inc()
		return false
	}
	rec.VM = vm
	rec.HostName = host.Name
	c.reg.Counter("vms_placed").Inc()

	// Prolog: stage the disk image from the front-end datastore.
	diskName := rec.Name() + "-disk"
	var stageBytes int64
	if rec.Template.FullClone {
		img, cerr := c.catalog.FullClone(rec.Template.Image, diskName)
		if cerr != nil {
			c.fail(rec, fmt.Sprintf("full clone: %v", cerr))
			return true
		}
		stageBytes = img.Size
	} else {
		if _, cerr := c.catalog.Clone(rec.Template.Image, diskName); cerr != nil {
			c.fail(rec, fmt.Sprintf("clone: %v", cerr))
			return true
		}
		stageBytes = c.opts.COWStageBytes
	}
	rec.DiskImage = diskName
	c.setState(rec, Prolog)
	_, terr := c.net.Transfer(FrontendName, host.Name, stageBytes, func(simnet.Result) {
		c.boot(rec)
	})
	if terr != nil {
		c.fail(rec, fmt.Sprintf("prolog transfer: %v", terr))
	}
	return true
}

// boot powers the guest on and schedules its transition to Running.
func (c *Cloud) boot(rec *VMRecord) {
	if rec.State != Prolog {
		return // failed or cancelled during prolog
	}
	if rec.VM.Host() == nil || rec.VM.Host().Failed() {
		c.fail(rec, "host failed during prolog")
		return
	}
	if err := c.driver.Start(rec.VM); err != nil {
		c.fail(rec, fmt.Sprintf("start: %v", err))
		return
	}
	c.setState(rec, Boot)
	c.sim.Schedule(c.driver.BootTime(), func() {
		if rec.State != Boot {
			return
		}
		if rec.VM.State() == virt.StateFailed {
			c.fail(rec, "guest failed during boot")
			return
		}
		rec.IP = c.allocIP()
		rec.VM.Workload = rec.Template.Workload
		c.setState(rec, Running)
		c.reg.Counter("vms_booted").Inc()
		if rec.recovering {
			rec.recovering = false
			c.reg.Counter("vms_auto_restarted").Inc()
			c.reg.Histogram("vm_recovery_seconds").
				Observe((c.sim.Now() - rec.failedAt).Seconds())
		}
		c.deliverContext(rec)
		if rec.Template.Group != "" {
			c.checkGroupReady(rec.Template.Group)
		}
	})
}

func (c *Cloud) allocIP() string {
	n := c.ipNext
	c.ipNext++
	return fmt.Sprintf("10.0.%d.%d", n/254, n%254+1)
}

// deliverContext pushes the instance's contextualization into the guest.
func (c *Cloud) deliverContext(rec *VMRecord) {
	ctx := map[string]string{
		"IP":       rec.IP,
		"HOSTNAME": rec.Name(),
		"VM_ID":    fmt.Sprintf("%d", rec.ID),
	}
	for k, v := range rec.Template.Context {
		ctx[k] = v
	}
	if rec.Template.Group != "" {
		ctx["GROUP"] = rec.Template.Group
	}
	rec.VM.SetContext(ctx)
}

// checkGroupReady delivers cross-member addresses once every VM of the
// group is Running.
func (c *Cloud) checkGroupReady(group string) {
	ids := c.groups[group]
	members := make([]*VMRecord, 0, len(ids))
	for _, id := range ids {
		rec := c.vms[id]
		if rec == nil || rec.State != Running {
			return
		}
		members = append(members, rec)
	}
	for _, rec := range members {
		ctx := rec.VM.Context()
		for _, other := range members {
			ctx["MEMBER_"+other.Template.Name+"_IP"] = other.IP
		}
		rec.VM.SetContext(ctx)
	}
	c.reg.Counter("groups_contextualized").Inc()
}

func (c *Cloud) fail(rec *VMRecord, reason string) {
	rec.FailReason = reason
	c.setState(rec, Failed)
	c.reg.Counter("vms_failed").Inc()
	if rec.VM != nil {
		if h := rec.VM.Host(); h != nil && !h.Failed() {
			c.driver.Destroy(h, rec.Name())
		}
		rec.VM = nil
	}
}

// GroupReady reports whether every VM in the group is Running.
func (c *Cloud) GroupReady(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.groups[name]
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if rec := c.vms[id]; rec == nil || rec.State != Running {
			return false
		}
	}
	return true
}

// LiveMigrate moves a running instance to dstHost using the driver's live
// migration. The outcome is recorded in the VM's LastMigration.
func (c *Cloud) LiveMigrate(id int, dstHost string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	dst, ok := c.hostByName[dstHost]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchHost, dstHost)
	}
	return c.liveMigrateLocked(rec, dst, migratePlaced)
}

// migrateReason is why a live migration was started. It names the lifecycle
// trace and decides what a failed copy means.
type migrateReason int

const (
	// migratePlaced: an operator or a placement pass (evacuation,
	// consolidation, re-aim) wants the VM on another host; a failure is
	// retried where that can help (see rescheduleMigrationLocked).
	migratePlaced migrateReason = iota
	// migrateRebalance: the Rebalancer's optional move; a failure is counted
	// and dropped, the next pass measures the spread afresh.
	migrateRebalance
)

// liveMigrateLocked starts a live migration with c.mu held.
func (c *Cloud) liveMigrateLocked(rec *VMRecord, dst *virt.Host, why migrateReason) error {
	if rec.State != Running {
		return fmt.Errorf("%w: migrate from %v", ErrBadState, rec.State)
	}
	err := c.driver.Migrate(rec.VM, dst, func(rep migrate.Report) {
		r := rep
		rec.LastMigration = &r
		rec.migratingTo = ""
		if rep.Success {
			rec.HostName = dst.Name
			rec.migRetries = 0
			rec.span.Annotate("downtime", rep.Downtime.String())
			c.setState(rec, Running)
			c.reg.Counter("migrations_succeeded").Inc()
			c.reg.Histogram("migration_downtime_seconds").Observe(rep.Downtime.Seconds())
			c.reg.Histogram("migration_total_seconds").Observe(rep.TotalTime.Seconds())
			c.kickScheduler() // source capacity freed
		} else {
			rec.span.Annotate("fail_reason", rep.Reason)
			rec.span.SetError(fmt.Errorf("migration failed: %s", rep.Reason))
			c.setState(rec, Running) // still live on the source
			c.reg.Counter("migrations_failed").Inc()
			if why == migrateRebalance {
				c.reg.Counter("rebalance_migrations_failed").Inc()
			} else {
				c.rescheduleMigrationLocked(rec, dst)
			}
		}
	})
	if err != nil {
		return err
	}
	src := rec.HostName
	rec.migReason, rec.migratingTo = why, dst.Name
	c.setState(rec, Migrating)
	if rec.span != nil {
		rec.span.Annotate("src", src)
		rec.span.Annotate("dst", dst.Name)
	}
	c.reg.Counter("migrations_started").Inc()
	return nil
}

// Suspend checkpoints a running instance to host disk: the guest pauses,
// its memory image is written out (at local disk speed), and the record
// enters Suspended. Resources stay reserved, as with OpenNebula's suspend.
func (c *Cloud) Suspend(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	if rec.State != Running {
		return fmt.Errorf("%w: suspend from %v", ErrBadState, rec.State)
	}
	if err := rec.VM.Pause(); err != nil {
		return err
	}
	host := rec.VM.Host()
	saveSecs := float64(rec.Template.MemoryBytes) / host.DiskRate
	c.setState(rec, Suspended)
	c.reg.Counter("vms_suspended").Inc()
	// The save runs in the background; the guest is already paused.
	c.sim.Schedule(time.Duration(saveSecs*float64(time.Second)), func() {})
	return nil
}

// Resume restores a Suspended instance: the memory image reads back from
// disk (taking virtual time), then the guest continues.
func (c *Cloud) Resume(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	if rec.State != Suspended {
		return fmt.Errorf("%w: resume from %v", ErrBadState, rec.State)
	}
	host := rec.VM.Host()
	if host == nil || host.Failed() {
		c.fail(rec, "host failed while suspended")
		return fmt.Errorf("%w: host lost while suspended", ErrBadState)
	}
	loadSecs := float64(rec.Template.MemoryBytes) / host.DiskRate
	c.sim.Schedule(time.Duration(loadSecs*float64(time.Second)), func() {
		if rec.State != Suspended {
			return
		}
		if err := rec.VM.Resume(); err != nil {
			c.fail(rec, fmt.Sprintf("resume: %v", err))
			return
		}
		c.setState(rec, Running)
		c.reg.Counter("vms_resumed").Inc()
	})
	return nil
}

// Shutdown gracefully stops a running instance and releases its resources.
func (c *Cloud) Shutdown(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shutdownLocked(id)
}

// shutdownLocked is Shutdown with c.mu held.
func (c *Cloud) shutdownLocked(id int) error {
	rec, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	if rec.State != Running {
		return fmt.Errorf("%w: shutdown from %v", ErrBadState, rec.State)
	}
	return c.beginShutdownLocked(rec)
}

// beginShutdownLocked stops the guest and schedules the epilog. It is the
// shared tail of operator shutdown (from Running) and graceful drain
// completion (from Draining).
func (c *Cloud) beginShutdownLocked(rec *VMRecord) error {
	if err := c.driver.Shutdown(rec.VM); err != nil {
		return err
	}
	c.setState(rec, Shutdown)
	// Epilog: brief delay for guest OS halt + cleanup, then release.
	c.sim.Schedule(5*time.Second, func() {
		if rec.State != Shutdown {
			return
		}
		if h := rec.VM.Host(); h != nil && !h.Failed() {
			c.driver.Destroy(h, rec.Name())
		}
		if rec.DiskImage != "" {
			c.catalog.Delete(rec.DiskImage)
		}
		rec.VM = nil
		c.setState(rec, Done)
		c.reg.Counter("vms_done").Inc()
		c.kickScheduler() // capacity freed
	})
	return nil
}
