package hdfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"videocloud/internal/metrics"
)

// This file is the storage tier's self-healing loop. A replication deficit is
// derived state: a block is under-replicated when fewer of its replicas sit
// on in-service nodes than its file asks for (NameNode.UnderReplicatedAll),
// whatever the cause — a dead node, a draining one, a corrupt replica dropped
// from the block map. Cluster.RepairAll closes the deficit when called; the
// Healer does the same in the background, the way HDFS's heartbeat monitor and
// ReplicationMonitor do (Shvachko et al. 2010): it polls node liveness,
// declares death after consecutive missed polls, and each tick scans for
// under-replicated blocks and runs bounded-concurrency repair copies with
// per-block retry backoff — planned (NameNode.PlanRepair) and made
// (Cluster.replicate) by the same code RepairAll uses — and re-absorbs
// rejoining nodes' replicas.

// The healing loop's timing and budgets. All times are wall clock — the
// storage tier runs on real goroutines, not the virtual-time kernel.
const (
	// healerInterval is the poll period for liveness and repair scans.
	healerInterval = 20 * time.Millisecond
	// deadPolls consecutive down polls declare a DataNode dead.
	deadPolls = 3
	// repairConcurrency bounds parallel repair copies.
	repairConcurrency = 4
	// repairAttempts caps repair attempts per block before giving up until
	// the next under-replication scan re-queues it.
	repairAttempts = 5
	// repairBackoff delays a block's retry after a failed copy, doubling
	// per attempt.
	repairBackoff = 50 * time.Millisecond
)

// repairState tracks one under-replicated block through the healer.
type repairState struct {
	attempts    int
	nextTry     time.Time
	firstQueued time.Time
	inFlight    bool
}

// Healer is the background failure detector and re-replication worker for
// one cluster. Create with Cluster.StartHealer, stop with Stop.
type Healer struct {
	c *Cluster
	// interval, polls and backoff are healerInterval, deadPolls and
	// repairBackoff; the package's tests shorten them.
	interval time.Duration
	polls    int
	backoff  time.Duration

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // in-flight repair copies

	mu        sync.Mutex
	downPolls map[string]int
	firstDown map[string]time.Time
	pending   map[BlockID]*repairState
}

// StartHealer launches the healing loop and returns its handle. The caller
// owns the handle and must Stop it; running two healers on one cluster is
// safe but pointless.
func (c *Cluster) StartHealer() *Healer {
	return c.startHealer(healerInterval, deadPolls, repairBackoff)
}

// startHealer is StartHealer with the loop's timing as parameters.
func (c *Cluster) startHealer(interval time.Duration, polls int, backoff time.Duration) *Healer {
	h := &Healer{
		c: c, interval: interval, polls: polls, backoff: backoff,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		downPolls: make(map[string]int),
		firstDown: make(map[string]time.Time),
		pending:   make(map[BlockID]*repairState),
	}
	go h.run()
	return h
}

// CrashDataNode takes a node down silently — the NameNode is not told, so
// nothing is under-replicated yet. Detection is the healer's job; this is the
// chaos injector's DataNode-kill fault. Contrast KillDataNode, which models
// an operator declaring the node dead.
func (c *Cluster) CrashDataNode(name string) error {
	dn := c.DataNode(name)
	if dn == nil {
		return fmt.Errorf("hdfs: unknown datanode %q", name)
	}
	dn.SetDown(true)
	c.reg.Counter("datanodes_crashed").Inc()
	return nil
}

// Stop halts the loop and waits for in-flight repair copies to finish.
func (h *Healer) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
	h.wg.Wait()
}

func (h *Healer) run() {
	defer close(h.done)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
			h.pollLiveness()
			h.gatherWork()
			h.dispatchRepairs()
		}
	}
}

// pollLiveness is one detection tick: a node down for h.polls
// consecutive polls is declared dead to the NameNode (its blocks turn up in
// the next under-replication scan); a node back up while the NameNode thinks
// it dead is rejoined and its surviving replicas re-announced.
func (h *Healer) pollLiveness() {
	nn := h.c.NameNode()
	h.c.mu.RLock()
	names := make([]string, 0, len(h.c.nodes))
	for name := range h.c.nodes {
		names = append(names, name)
	}
	h.c.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		dn := h.c.DataNode(name)
		if dn == nil {
			continue
		}
		down, alive := dn.Down(), nn.IsAlive(name)
		switch {
		case !down && alive:
			h.mu.Lock()
			h.downPolls[name] = 0
			delete(h.firstDown, name)
			h.mu.Unlock()
		case down && alive:
			h.mu.Lock()
			if h.downPolls[name] == 0 {
				h.firstDown[name] = time.Now()
			}
			h.downPolls[name]++
			declared := h.downPolls[name] >= h.polls
			var sinceDown time.Duration
			if declared {
				sinceDown = time.Since(h.firstDown[name])
			}
			h.mu.Unlock()
			if declared {
				nn.MarkDead(name)
				h.c.reg.Counter("datanodes_detected_dead").Inc()
				h.c.reg.Histogram("dn_detect_seconds").Observe(sinceDown.Seconds())
			}
		case !down && !alive:
			// Rejoin: re-register and announce surviving replicas so the
			// NameNode can count them toward replication targets again.
			h.c.ReviveDataNode(name)
			h.c.reg.Counter("datanodes_rejoined").Inc()
			h.mu.Lock()
			h.downPolls[name] = 0
			delete(h.firstDown, name)
			h.mu.Unlock()
		}
	}
}

// gatherWork adds every under-replicated block the healer is not already
// tracking to its pending set. The full scan is what makes healing
// convergent: a block whose copy failed, or that ran out of attempts, is
// found again on the next tick.
func (h *Healer) gatherWork() {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.c.NameNode().UnderReplicatedAll() {
		if h.pending[id] == nil {
			h.pending[id] = &repairState{firstQueued: now, nextTry: now}
		}
	}
}

// dispatchRepairs starts repair copies for due blocks, bounded by
// repairConcurrency across ticks.
func (h *Healer) dispatchRepairs() {
	now := time.Now()
	h.mu.Lock()
	inFlight := 0
	for _, st := range h.pending {
		if st.inFlight {
			inFlight++
		}
	}
	budget := repairConcurrency - inFlight
	var due []BlockID
	for id, st := range h.pending {
		if !st.inFlight && !st.nextTry.After(now) {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	if len(due) > budget {
		due = due[:max(budget, 0)]
	}
	for _, id := range due {
		h.pending[id].inFlight = true
		h.wg.Add(1)
		go h.repairOne(id)
	}
	h.mu.Unlock()
}

// repairOne executes one re-replication copy, resolving source and target
// at execution time.
func (h *Healer) repairOne(id BlockID) {
	defer h.wg.Done()
	task, healthy, ok := h.c.NameNode().PlanRepair(id)
	if healthy {
		h.settle(id, true)
		return
	}
	if !ok {
		// Unrepairable right now (no live source or no target); leave
		// pending with backoff so a rejoin or freed capacity can fix it.
		h.retryLater(id, false)
		return
	}
	if err := h.c.replicate(task); err != nil {
		h.retryLater(id, true)
		return
	}
	// One copy done; the block may still be short (two replicas lost).
	if _, healthy, _ := h.c.NameNode().PlanRepair(id); healthy {
		h.settle(id, false)
	} else {
		h.retryLater(id, false)
	}
}

// settle removes a healed block from the pending set and records its
// time-to-heal (unless it was already healthy when first examined).
func (h *Healer) settle(id BlockID, alreadyHealthy bool) {
	h.mu.Lock()
	st := h.pending[id]
	delete(h.pending, id)
	h.mu.Unlock()
	if st == nil || alreadyHealthy {
		return
	}
	since := time.Since(st.firstQueued)
	h.c.reg.Counter("blocks_healed").Inc()
	h.c.reg.Histogram("re_replication_seconds").Observe(since.Seconds())
}

// retryLater schedules a block's next attempt with exponential backoff.
// Failed copies consume the attempt budget; "unrepairable right now" does
// not (the cluster state, not the block, is the problem). A block out of
// budget leaves the set — the under-replication scan re-queues it fresh if
// it still needs help.
func (h *Healer) retryLater(id BlockID, countAttempt bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.pending[id]
	if st == nil {
		return
	}
	st.inFlight = false
	if countAttempt {
		st.attempts++
		if st.attempts >= repairAttempts {
			delete(h.pending, id)
			h.c.reg.Counter("repairs_abandoned").Inc()
			return
		}
	}
	backoff := h.backoff << st.attempts
	if backoff > 5*time.Second || backoff <= 0 {
		backoff = 5 * time.Second
	}
	st.nextTry = time.Now().Add(backoff)
}

// PendingRepairs reports how many blocks the healer currently tracks as
// under-replicated.
func (h *Healer) PendingRepairs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// HealStats is a point-in-time summary of detection and repair activity.
type HealStats struct {
	DataNodesDetectedDead int64
	DataNodesRejoined     int64
	BlocksHealed          int64
	RepairFailures        int64
	RepairsAbandoned      int64
	PendingRepairs        int
	DetectLatency         metrics.Snapshot
	HealLatency           metrics.Snapshot
}

// Stats snapshots the healer's activity.
func (h *Healer) Stats() HealStats {
	reg := h.c.reg
	return HealStats{
		DataNodesDetectedDead: reg.Counter("datanodes_detected_dead").Value(),
		DataNodesRejoined:     reg.Counter("datanodes_rejoined").Value(),
		BlocksHealed:          reg.Counter("blocks_healed").Value(),
		RepairFailures:        reg.Counter("replication_failures").Value(),
		RepairsAbandoned:      reg.Counter("repairs_abandoned").Value(),
		PendingRepairs:        h.PendingRepairs(),
		DetectLatency:         reg.Histogram("dn_detect_seconds").Snapshot(),
		HealLatency:           reg.Histogram("re_replication_seconds").Snapshot(),
	}
}
