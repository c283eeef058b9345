// Package chaos is a deterministic, seed-reproducible fault injector for the
// whole stack: it can crash a nebula host, silently kill an HDFS DataNode,
// corrupt a stored block replica, partition simnet links, fail transcode-farm
// workers, and declare MapReduce task trackers dead. Every
// injection is recorded as a Fault whose detection and healing are later
// stamped by the self-healing layers (nebula.Monitor, hdfs.Healer, ...), so a
// chaos run produces per-fault-class detection-latency and MTTR numbers —
// written to BENCH_recovery.json by WriteReport.
//
// Reproducibility: all random target picks come from a single rand.Rand
// seeded at New. Two injectors with the same seed over identical clusters
// make identical picks in identical order.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"videocloud/internal/hdfs"
	"videocloud/internal/nebula"
	"videocloud/internal/simnet"
)

// Class names a fault category; report latencies aggregate per class.
type Class string

// The fault classes the injector can produce.
const (
	HostCrash       Class = "host_crash"       // silent host death (heartbeat-detected)
	DataNodeCrash   Class = "datanode_crash"   // silent DataNode death (healer-detected)
	BlockCorruption Class = "block_corruption" // one replica's bytes flipped
	LinkPartition   Class = "link_partition"   // simnet host cut off
	WorkerCrash     Class = "worker_crash"     // transcode farm worker fails a segment
	TrackerDeath    Class = "tracker_death"    // MapReduce task tracker dies
	TaskCrash       Class = "task_crash"       // one MapReduce task attempt fails
)

// Fault is one injected failure and its observed recovery timeline. Wall
// latencies come from the real clock (the HDFS healer's domain); sim
// latencies from the cloud's simulated clock (the nebula monitor's domain).
type Fault struct {
	ID     int    `json:"id"`
	Class  Class  `json:"class"`
	Target string `json:"target"`

	WallAt time.Time     `json:"injected_wall"`
	SimAt  time.Duration `json:"injected_sim_ns"`

	Detected   bool          `json:"detected"`
	Healed     bool          `json:"healed"`
	DetectWall time.Duration `json:"detect_wall_ns"`
	DetectSim  time.Duration `json:"detect_sim_ns"`
	HealWall   time.Duration `json:"heal_wall_ns"`
	HealSim    time.Duration `json:"heal_sim_ns"`
}

// Targets are the systems the injector may reach into. Any may be nil;
// methods needing an absent target return ErrNoTarget.
type Targets struct {
	Cloud   *nebula.Cloud
	Cluster *hdfs.Cluster
	Network *simnet.Network
}

// ErrNoTarget means the injector was asked to fault a subsystem it was not
// given.
var ErrNoTarget = errors.New("chaos: target subsystem not attached")

// Injector performs seeded fault injection and keeps the fault ledger.
// It is safe for concurrent use.
type Injector struct {
	seed int64

	mu           sync.Mutex
	rng          *rand.Rand
	t            Targets
	faults       []*Fault
	downTrackers map[string]bool
}

// New creates an injector whose every random choice derives from seed.
func New(seed int64, t Targets) *Injector {
	return &Injector{
		seed:         seed,
		rng:          rand.New(rand.NewSource(seed)),
		t:            t,
		downTrackers: make(map[string]bool),
	}
}

// simNow reads the simulated clock, when a cloud is attached.
func (in *Injector) simNow() time.Duration {
	if in.t.Cloud == nil {
		return 0
	}
	return in.t.Cloud.Now()
}

// record appends a fault to the ledger. Callers hold in.mu.
func (in *Injector) record(class Class, target string) *Fault {
	f := &Fault{
		ID:     len(in.faults) + 1,
		Class:  class,
		Target: target,
		WallAt: time.Now(),
		SimAt:  in.simNow(),
	}
	in.faults = append(in.faults, f)
	return f
}

// ---- nebula host faults ----

// CrashHost silently kills the named host; only the heartbeat monitor can
// notice.
func (in *Injector) CrashHost(name string) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Cloud == nil {
		return nil, ErrNoTarget
	}
	if err := in.t.Cloud.CrashHost(name); err != nil {
		return nil, err
	}
	return in.record(HostCrash, name), nil
}

// CrashRandomHost picks a random healthy host and crashes it.
func (in *Injector) CrashRandomHost() (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Cloud == nil {
		return nil, ErrNoTarget
	}
	name, err := in.pickHostLocked()
	if err != nil {
		return nil, err
	}
	if err := in.t.Cloud.CrashHost(name); err != nil {
		return nil, err
	}
	return in.record(HostCrash, name), nil
}

// pickHostLocked chooses a random non-failed host.
func (in *Injector) pickHostLocked() (string, error) {
	var names []string
	for _, h := range in.t.Cloud.Hosts() { // Hosts() is sorted by name
		if !h.Failed() {
			names = append(names, h.Name)
		}
	}
	if len(names) == 0 {
		return "", errors.New("chaos: no healthy host to crash")
	}
	return names[in.rng.Intn(len(names))], nil
}

// ---- HDFS faults ----

// CrashDataNode silently takes the named DataNode down; only the healer's
// liveness polls can notice.
func (in *Injector) CrashDataNode(name string) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Cluster == nil {
		return nil, ErrNoTarget
	}
	if err := in.t.Cluster.CrashDataNode(name); err != nil {
		return nil, err
	}
	return in.record(DataNodeCrash, name), nil
}

// CrashRandomDataNode crashes a random live DataNode.
func (in *Injector) CrashRandomDataNode() (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Cluster == nil {
		return nil, ErrNoTarget
	}
	var live []string
	for _, name := range in.t.Cluster.DataNodeNames() {
		if dn := in.t.Cluster.DataNode(name); dn != nil && !dn.Down() {
			live = append(live, name)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("chaos: no live datanode to crash")
	}
	name := live[in.rng.Intn(len(live))]
	if err := in.t.Cluster.CrashDataNode(name); err != nil {
		return nil, err
	}
	return in.record(DataNodeCrash, name), nil
}

// CorruptRandomBlock flips a byte in one randomly chosen stored replica on a
// random live DataNode. The corruption is latent until a reader's checksum
// verification trips over it.
func (in *Injector) CorruptRandomBlock() (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Cluster == nil {
		return nil, ErrNoTarget
	}
	var candidates []struct {
		node string
		id   hdfs.BlockID
	}
	for _, name := range in.t.Cluster.DataNodeNames() {
		dn := in.t.Cluster.DataNode(name)
		if dn == nil || dn.Down() {
			continue
		}
		for _, id := range dn.BlockIDs() { // sorted
			candidates = append(candidates, struct {
				node string
				id   hdfs.BlockID
			}{name, id})
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("chaos: no stored replica to corrupt")
	}
	pick := candidates[in.rng.Intn(len(candidates))]
	if err := in.t.Cluster.DataNode(pick.node).Corrupt(pick.id); err != nil {
		return nil, err
	}
	return in.record(BlockCorruption, fmt.Sprintf("%s/blk-%d", pick.node, pick.id)), nil
}

// ---- network faults ----

// PartitionHost cuts every flow through the named simnet host.
func (in *Injector) PartitionHost(name string) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.t.Network == nil {
		return nil, ErrNoTarget
	}
	if err := in.t.Network.Partition(name); err != nil {
		return nil, err
	}
	return in.record(LinkPartition, name), nil
}

// HealPartition reconnects the host and stamps the matching fault healed.
func (in *Injector) HealPartition(name string) error {
	if in.t.Network == nil {
		return ErrNoTarget
	}
	if err := in.t.Network.Heal(name); err != nil {
		return err
	}
	in.HealedByTarget(LinkPartition, name)
	return nil
}

// ---- transcode farm and MapReduce faults ----

// WorkerCrashHook returns a video.Farm.FaultHook that fails each segment
// task with probability p, at most limit times total, recording one
// WorkerCrash fault per injected failure. The farm surfaces the failure
// synchronously, so those faults are born detected.
func (in *Injector) WorkerCrashHook(p float64, limit int) func(node string, segment int) error {
	return func(node string, segment int) error {
		in.mu.Lock()
		defer in.mu.Unlock()
		if limit <= 0 || in.rng.Float64() >= p {
			return nil
		}
		limit--
		f := in.record(WorkerCrash, fmt.Sprintf("%s/seg-%d", node, segment))
		f.Detected = true
		return fmt.Errorf("chaos: injected worker crash on %s segment %d", node, segment)
	}
}

// TaskCrashHook returns a task-fault hook for mapred.Engine.InjectFaults
// that fails attempts with probability p, at most limit times total.
func (in *Injector) TaskCrashHook(p float64, limit int) func(phase, tracker string, taskID, attempt int) error {
	return func(phase, tracker string, taskID, attempt int) error {
		in.mu.Lock()
		defer in.mu.Unlock()
		if limit <= 0 || in.rng.Float64() >= p {
			return nil
		}
		limit--
		f := in.record(TaskCrash, fmt.Sprintf("%s/%s-%d", tracker, phase, taskID))
		f.Detected = true
		return fmt.Errorf("chaos: injected %s task crash on %s", phase, tracker)
	}
}

// KillTracker declares a MapReduce task tracker dead: TrackerAlive starts
// reporting false for it, and the engine re-runs its stranded work.
func (in *Injector) KillTracker(name string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.downTrackers[name] = true
	return in.record(TrackerDeath, name)
}

// ReviveTracker brings a killed tracker back and stamps its fault healed.
func (in *Injector) ReviveTracker(name string) {
	in.mu.Lock()
	in.downTrackers[name] = false
	in.mu.Unlock()
	in.HealedByTarget(TrackerDeath, name)
}

// TrackerAlive is the liveness oracle to plug into mapred.Engine.InjectFaults.
func (in *Injector) TrackerAlive(name string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.downTrackers[name]
}

// ---- recovery stamping ----

// MarkDetected stamps the fault's detection latency in both clock domains.
func (in *Injector) MarkDetected(f *Fault) {
	if f == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.markDetectedLocked(f)
}

func (in *Injector) markDetectedLocked(f *Fault) {
	if f.Detected {
		return
	}
	f.Detected = true
	f.DetectWall = time.Since(f.WallAt)
	f.DetectSim = in.simNow() - f.SimAt
}

// MarkHealed stamps the fault's recovery time (MTTR) in both clock domains.
// An undetected fault is marked detected at the same instant.
func (in *Injector) MarkHealed(f *Fault) {
	if f == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.markDetectedLocked(f)
	if f.Healed {
		return
	}
	f.Healed = true
	f.HealWall = time.Since(f.WallAt)
	f.HealSim = in.simNow() - f.SimAt
}

// DetectedByTarget stamps the oldest open fault of the class aimed at
// target; self-healing callbacks that only know the target name use this.
func (in *Injector) DetectedByTarget(class Class, target string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.Class == class && f.Target == target && !f.Detected {
			in.markDetectedLocked(f)
			return
		}
	}
}

// HealedByTarget stamps the oldest unhealed fault of the class aimed at
// target.
func (in *Injector) HealedByTarget(class Class, target string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.Class == class && f.Target == target && !f.Healed {
			in.markDetectedLocked(f)
			f.Healed = true
			f.HealWall = time.Since(f.WallAt)
			f.HealSim = in.simNow() - f.SimAt
			return
		}
	}
}

// Faults returns a copy of the ledger in injection order.
func (in *Injector) Faults() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Fault, len(in.faults))
	for i, f := range in.faults {
		out[i] = *f
	}
	return out
}
