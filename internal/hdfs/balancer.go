package hdfs

import (
	"errors"
	"fmt"
	"sort"
)

// This file adds the two operational tools a production HDFS deployment of
// the paper's video store needs: the balancer (Hadoop's balancer daemon),
// which evens storage across DataNodes after growth or skewed ingest, and
// graceful decommissioning, which drains a node's replicas before it is
// removed — the planned-maintenance counterpart of MarkDead: both only make
// a node's replicas stop counting, and the same repair loop (RepairAll, the
// Healer) closes the deficit that appears.

// ErrDecommissionIncomplete is returned when a node still holds the only
// replica of some block.
var ErrDecommissionIncomplete = errors.New("hdfs: decommission incomplete")

// moveReplica atomically retargets one replica in the NameNode's books.
func (nn *NameNode) moveReplica(id BlockID, from, to string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	info, ok := nn.blocks[id]
	if !ok {
		return fmt.Errorf("hdfs: move of unknown block %d", id)
	}
	src, dst := nn.datanodes[from], nn.datanodes[to]
	if src == nil || dst == nil {
		return fmt.Errorf("hdfs: move %d between unknown nodes %q->%q", id, from, to)
	}
	found := false
	for i, loc := range info.Locations {
		if loc == to {
			return fmt.Errorf("hdfs: block %d already on %q", id, to)
		}
		if loc == from {
			info.Locations[i] = to
			found = true
		}
	}
	if !found {
		return fmt.Errorf("hdfs: block %d has no replica on %q", id, from)
	}
	delete(src.blocks, id)
	src.used -= info.Length
	dst.blocks[id] = true
	dst.used += info.Length
	return nil
}

// usedBytes returns live datanodes sorted by stored bytes (ascending).
func (nn *NameNode) usedByNode() []struct {
	Name string
	Used int64
} {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []struct {
		Name string
		Used int64
	}
	for name, dn := range nn.datanodes {
		if dn.inService() {
			out = append(out, struct {
				Name string
				Used int64
			}{name, dn.used})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Used != out[j].Used {
			return out[i].Used < out[j].Used
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// movable returns the blocks on from that could move to to, sorted: to holds
// no replica of them, and they are no longer than room — moving one must not
// make the destination the new outlier by more than the gap it closes.
func (nn *NameNode) movable(from, to string, room int64) []BlockID {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	src, dst := nn.datanodes[from], nn.datanodes[to]
	if src == nil || dst == nil {
		return nil
	}
	var out []BlockID
	for id := range src.blocks {
		if info := nn.blocks[id]; info != nil && !dst.blocks[id] && info.Length <= room {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Balance moves block replicas from the most- to the least-utilized
// datanodes until the spread of stored bytes is within threshold (or no
// legal move remains — a replica never moves to a node that already holds
// the block). It returns the number of replicas moved.
func (c *Cluster) Balance(threshold int64) int {
	if threshold < 1 {
		threshold = 1
	}
	moves := 0
	for iter := 0; iter < 10000; iter++ {
		nodes := c.nn.usedByNode()
		if len(nodes) < 2 {
			return moves
		}
		lo, hi := nodes[0], nodes[len(nodes)-1]
		if hi.Used-lo.Used <= threshold {
			return moves
		}
		moved := false
		for _, id := range c.nn.movable(hi.Name, lo.Name, hi.Used-lo.Used) {
			if _, err := c.transferBlock(id, hi.Name, lo.Name); err != nil {
				continue
			}
			if err := c.nn.moveReplica(id, hi.Name, lo.Name); err != nil {
				c.DataNode(lo.Name).Delete(id)
				continue
			}
			c.DataNode(hi.Name).Delete(id)
			c.reg.Counter("blocks_rebalanced").Inc()
			moves++
			moved = true
			break
		}
		if !moved {
			return moves
		}
	}
	return moves
}

// StartDecommission marks a node as draining: it receives no new replicas
// and the ones it holds stop counting toward their blocks' replication, so
// each of them is under-replicated until the repair loop has copied it
// elsewhere (the draining node itself may be the copy source, and it keeps
// serving reads). Nothing is planned here.
func (nn *NameNode) StartDecommission(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn, ok := nn.datanodes[name]
	if !ok {
		return fmt.Errorf("hdfs: unknown datanode %q", name)
	}
	dn.decommissioning = true
	return nil
}

// FinishDecommission verifies every block on the node has an in-service
// replica elsewhere, then retires the node (no re-replication storm — its
// replicas were already drained).
func (nn *NameNode) FinishDecommission(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn, ok := nn.datanodes[name]
	if !ok {
		return fmt.Errorf("hdfs: unknown datanode %q", name)
	}
	if !dn.decommissioning {
		return fmt.Errorf("hdfs: %q is not decommissioning", name)
	}
	for id := range dn.blocks {
		info := nn.blocks[id]
		if info == nil {
			continue
		}
		if nn.replicas(info) == 0 {
			return fmt.Errorf("%w: block %d only on %q", ErrDecommissionIncomplete, id, name)
		}
	}
	// Retire: drop its replicas from the books.
	for id := range dn.blocks {
		if info := nn.blocks[id]; info != nil {
			kept := info.Locations[:0]
			for _, loc := range info.Locations {
				if loc != name {
					kept = append(kept, loc)
				}
			}
			info.Locations = kept
		}
	}
	dn.blocks = map[BlockID]bool{}
	dn.used = 0
	dn.alive = false
	return nil
}

// Decommission runs the full graceful-drain flow on the cluster: start,
// repair until nothing more can be copied, verify, retire, and finally take
// the node's process down. It returns the copies made while draining — the
// node's own replicas, plus any unrelated block that was already short.
func (c *Cluster) Decommission(name string) (int, error) {
	if err := c.nn.StartDecommission(name); err != nil {
		return 0, err
	}
	copied := c.RepairAll()
	if err := c.nn.FinishDecommission(name); err != nil {
		return copied, err
	}
	if dn := c.DataNode(name); dn != nil {
		dn.SetDown(true)
	}
	c.reg.Counter("datanodes_decommissioned").Inc()
	return copied, nil
}
