// Package hdfs is the Hadoop Distributed File System stand-in described in
// the paper's §III-B and Figure 11: a master-slave file system with one
// NameNode holding the namespace and block map, and DataNodes storing
// replicated blocks. "The metadata consists of name space of the file
// system ... however, the real data are not stored at Name node."
//
// This implementation moves real bytes: files are split into blocks, written
// through a replication pipeline across DataNodes, verified with CRC32
// checksums on read, and re-replicated when a DataNode dies — the property
// the paper relies on "to lower damage risks caused by hosts".
package hdfs

import (
	"errors"
	"fmt"
	"maps"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DefaultBlockSize matches Hadoop 0.20's 64 MiB default.
const DefaultBlockSize = 64 << 20

// Errors returned by the NameNode.
var (
	ErrNotFound       = errors.New("hdfs: no such file or directory")
	ErrExists         = errors.New("hdfs: file exists")
	ErrIsDirectory    = errors.New("hdfs: is a directory")
	ErrNotDirectory   = errors.New("hdfs: not a directory")
	ErrNotEmpty       = errors.New("hdfs: directory not empty")
	ErrNoDataNodes    = errors.New("hdfs: no live datanodes for placement")
	ErrFileOpen       = errors.New("hdfs: file is under construction")
	ErrFileComplete   = errors.New("hdfs: file already complete")
	ErrBadReplication = errors.New("hdfs: invalid replication factor")
)

// BlockID identifies a block cluster-wide.
type BlockID int64

// BlockInfo is the NameNode's record of one block.
type BlockInfo struct {
	ID        BlockID
	Length    int64
	Locations []string // datanode names holding a replica
	// Replication is the file's target replica count for this block.
	Replication int

	// badOn names the datanodes that have served a corrupt copy of this
	// block (ReportCorrupt). Fault-recovery state: PlanRepair re-hosts on one
	// of them only when no other target exists.
	badOn map[string]bool
}

// FileStatus describes a namespace entry.
type FileStatus struct {
	Path        string
	IsDir       bool
	Size        int64
	Replication int
	Blocks      int
}

// ReplicationTask is one planned replica copy between datanodes (PlanRepair).
type ReplicationTask struct {
	Block BlockID
	Src   string
	Dst   string
}

type inode struct {
	name     string
	dir      bool
	children map[string]*inode
	// file fields
	blocks      []BlockID
	replication int
	complete    bool
}

// DefaultRack is the rack of datanodes registered without topology.
const DefaultRack = "/default-rack"

type dnInfo struct {
	name            string
	rack            string
	capacity        int64
	used            int64
	alive           bool
	decommissioning bool
	blocks          map[BlockID]bool
}

// inService is the one replica-counting predicate: a node's replicas count
// toward their blocks' replication, and the node may receive new ones, only
// while it is alive and not draining. (A draining node still serves reads
// and repair copies — that needs alive alone.)
func (dn *dnInfo) inService() bool { return dn != nil && dn.alive && !dn.decommissioning }

// NameNode is the master: namespace tree, block map and datanode liveness.
// Under-replication is derived from the block map on demand
// (UnderReplicatedAll, PlanRepair), never queued. All methods are safe for
// concurrent use.
type NameNode struct {
	mu        sync.Mutex
	blockSize int64
	root      *inode
	blocks    map[BlockID]*BlockInfo
	nextBlock BlockID
	datanodes map[string]*dnInfo
}

// NewNameNode returns a NameNode with the given block size (0 selects
// DefaultBlockSize).
func NewNameNode(blockSize int64) *NameNode {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &NameNode{
		blockSize: blockSize,
		root:      &inode{name: "/", dir: true, children: map[string]*inode{}},
		blocks:    make(map[BlockID]*BlockInfo),
		datanodes: make(map[string]*dnInfo),
	}
}

// BlockSize returns the cluster block size.
func (nn *NameNode) BlockSize() int64 { return nn.blockSize }

// cleanRel is the namespace's one path rule: p must be absolute, and the
// result is its cleaned form relative to the root ("" for the root itself).
func cleanRel(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("hdfs: path %q is not absolute", p)
	}
	return path.Clean(p)[1:], nil
}

func splitPath(p string) ([]string, error) {
	rel, err := cleanRel(p)
	if err != nil || rel == "" {
		return nil, err
	}
	return strings.Split(rel, "/"), nil
}

// lookup walks to the inode for p; nil if absent. It cuts the components
// off the cleaned path one at a time, so an open allocates nothing here.
func (nn *NameNode) lookup(p string) (*inode, error) {
	rest, err := cleanRel(p)
	if err != nil {
		return nil, err
	}
	cur := nn.root
	for rest != "" {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if !cur.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDirectory, p)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
		}
		cur = next
	}
	return cur, nil
}

// Mkdir creates a directory and any missing parents.
func (nn *NameNode) Mkdir(p string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	cur := nn.root
	for _, part := range parts {
		next, ok := cur.children[part]
		if !ok {
			next = &inode{name: part, dir: true, children: map[string]*inode{}}
			cur.children[part] = next
		} else if !next.dir {
			return fmt.Errorf("%w: %q", ErrNotDirectory, p)
		}
		cur = next
	}
	return nil
}

// Create opens a new file for writing with the given replication factor.
// Parents are created as needed. The file stays "under construction" until
// CloseFile.
func (nn *NameNode) Create(p string, replication int) error {
	if replication < 1 {
		return fmt.Errorf("%w: %d", ErrBadReplication, replication)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: /", ErrIsDirectory)
	}
	cur := nn.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			next = &inode{name: part, dir: true, children: map[string]*inode{}}
			cur.children[part] = next
		} else if !next.dir {
			return fmt.Errorf("%w: %q", ErrNotDirectory, p)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	if _, dup := cur.children[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, p)
	}
	cur.children[name] = &inode{name: name, replication: replication}
	return nil
}

// file returns the inode for a plain file.
func (nn *NameNode) file(p string) (*inode, error) {
	node, err := nn.lookup(p)
	if err != nil {
		return nil, err
	}
	if node.dir {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	return node, nil
}

// AddBlock allocates the next block of an under-construction file and
// chooses its replica pipeline. clientNode, when it names a live datanode,
// receives the first replica (HDFS write locality).
func (nn *NameNode) AddBlock(p, clientNode string) (*BlockInfo, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.file(p)
	if err != nil {
		return nil, err
	}
	if node.complete {
		return nil, fmt.Errorf("%w: %q", ErrFileComplete, p)
	}
	targets := nn.chooseTargets(node.replication, clientNode, nil)
	if len(targets) == 0 {
		return nil, ErrNoDataNodes
	}
	nn.nextBlock++
	info := &BlockInfo{ID: nn.nextBlock, Locations: targets, Replication: node.replication}
	nn.blocks[info.ID] = info
	node.blocks = append(node.blocks, info.ID)
	return info, nil
}

// chooseTargets picks up to want live datanodes for a new block's pipeline.
// With a single rack it prefers the client's node first, then least-used.
// With topology it follows Hadoop's default placement: first replica on the
// client's node (or least-used), second on a *different* rack (survives a
// rack failure), third on the second's rack but a different node (bounds
// cross-rack traffic), and any further replicas least-used anywhere.
func (nn *NameNode) chooseTargets(want int, clientNode string, exclude map[string]bool) []string {
	var cands []*dnInfo
	racks := map[string]bool{}
	for _, dn := range nn.datanodes {
		if dn.inService() && !exclude[dn.name] {
			cands = append(cands, dn)
			racks[dn.rack] = true
		}
	}
	// Deterministic base order: client-local first, emptiest, then name.
	sort.Slice(cands, func(i, j int) bool {
		li, lj := cands[i].name == clientNode, cands[j].name == clientNode
		if li != lj {
			return li
		}
		if cands[i].used != cands[j].used {
			return cands[i].used < cands[j].used
		}
		return cands[i].name < cands[j].name
	})
	if want >= 2 && len(racks) >= 2 {
		return nn.rackAwareTargets(want, cands)
	}
	if len(cands) > want {
		cands = cands[:want]
	}
	out := make([]string, len(cands))
	for i, dn := range cands {
		out[i] = dn.name
	}
	return out
}

// rackAwareTargets implements the staged rack policy over an already-ranked
// candidate list.
func (nn *NameNode) rackAwareTargets(want int, ranked []*dnInfo) []string {
	taken := map[string]bool{}
	var out []string
	pick := func(pred func(*dnInfo) bool) *dnInfo {
		for _, dn := range ranked {
			if !taken[dn.name] && pred(dn) {
				taken[dn.name] = true
				out = append(out, dn.name)
				return dn
			}
		}
		return nil
	}
	any := func(*dnInfo) bool { return true }
	first := pick(any)
	if first == nil {
		return out
	}
	if len(out) < want {
		second := pick(func(dn *dnInfo) bool { return dn.rack != first.rack })
		if second == nil {
			second = pick(any)
		}
		if second != nil && len(out) < want {
			third := pick(func(dn *dnInfo) bool { return dn.rack == second.rack })
			if third == nil {
				pick(any)
			}
		}
	}
	for len(out) < want && pick(any) != nil {
	}
	return out
}

// CommitBlock records a block's final length and its confirmed replica
// locations after the pipeline write succeeded.
func (nn *NameNode) CommitBlock(id BlockID, length int64, locations []string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	info, ok := nn.blocks[id]
	if !ok {
		return fmt.Errorf("hdfs: commit of unknown block %d", id)
	}
	info.Length = length
	info.Locations = append([]string(nil), locations...)
	for _, name := range locations {
		if dn := nn.datanodes[name]; dn != nil {
			dn.blocks[id] = true
			dn.used += length
		}
	}
	return nil
}

// CloseFile completes an under-construction file; its content becomes
// immutable (matching 2012-era HDFS without append).
func (nn *NameNode) CloseFile(p string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.file(p)
	if err != nil {
		return err
	}
	if node.complete {
		return fmt.Errorf("%w: %q", ErrFileComplete, p)
	}
	node.complete = true
	return nil
}

// GetBlockLocations returns the file's blocks in order with their replica
// locations. Only complete files can be read.
func (nn *NameNode) GetBlockLocations(p string) ([]BlockInfo, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.file(p)
	if err != nil {
		return nil, err
	}
	if !node.complete {
		return nil, fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	return nn.blockInfosLocked(nil, node), nil
}

// blockInfosLocked snapshots a complete file's block layout, into dst's
// array when it has the room. The location lists are carved from one arena
// sized by a counting pass — one allocation for the whole file instead of one
// per block — with full-capacity subslices so an append on one block's list
// can never bleed into the next. Callers hold nn.mu.
func (nn *NameNode) blockInfosLocked(dst []BlockInfo, node *inode) []BlockInfo {
	out := slices.Grow(dst[:0], len(node.blocks))[:len(node.blocks)]
	var locTotal int
	for _, id := range node.blocks {
		info := nn.blocks[id]
		for _, name := range info.Locations {
			if dn := nn.datanodes[name]; dn != nil && dn.alive {
				locTotal++
			}
		}
	}
	arena := make([]string, 0, locTotal)
	for i, id := range node.blocks {
		info := nn.blocks[id]
		lo := len(arena)
		for _, name := range info.Locations {
			if dn := nn.datanodes[name]; dn != nil && dn.alive {
				arena = append(arena, name)
			}
		}
		out[i] = BlockInfo{
			ID: id, Length: info.Length,
			Locations: arena[lo:len(arena):len(arena)], Replication: info.Replication,
		}
	}
	return out
}

// FileBlocks resolves a path's status and, for complete files, its block
// layout in one namespace lock acquisition — the batched lookup backing
// Client.Open, which previously paid separate Stat and GetBlockLocations
// round trips. Directories return their status with nil blocks; an
// under-construction file is an ErrFileOpen error. The layout is written into
// dst's array when it has the room, so a reader can hold a small file's
// layout in its own allocation.
func (nn *NameNode) FileBlocks(p string, dst []BlockInfo) (FileStatus, []BlockInfo, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.lookup(p)
	if err != nil {
		return FileStatus{}, nil, err
	}
	st := FileStatus{Path: path.Clean(p), IsDir: node.dir, Replication: node.replication}
	if node.dir {
		return st, nil, nil
	}
	if !node.complete {
		return FileStatus{}, nil, fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	blocks := nn.blockInfosLocked(dst, node)
	for _, b := range blocks {
		st.Size += b.Length
	}
	st.Blocks = len(blocks)
	return st, blocks, nil
}

// replicas counts the block's in-service replicas — the number its
// replication target is compared with.
func (nn *NameNode) replicas(info *BlockInfo) int {
	n := 0
	for _, name := range info.Locations {
		if nn.datanodes[name].inService() {
			n++
		}
	}
	return n
}

// Stat returns metadata for a path.
func (nn *NameNode) Stat(p string) (FileStatus, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.lookup(p)
	if err != nil {
		return FileStatus{}, err
	}
	st := FileStatus{Path: path.Clean(p), IsDir: node.dir, Replication: node.replication}
	if !node.dir {
		for _, id := range node.blocks {
			st.Size += nn.blocks[id].Length
		}
		st.Blocks = len(node.blocks)
	}
	return st, nil
}

// List returns the entries of a directory, sorted by name.
func (nn *NameNode) List(p string) ([]FileStatus, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.lookup(p)
	if err != nil {
		return nil, err
	}
	if !node.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDirectory, p)
	}
	names := make([]string, 0, len(node.children))
	for name := range node.children {
		names = append(names, name)
	}
	sort.Strings(names)
	base := path.Clean(p)
	out := make([]FileStatus, 0, len(names))
	for _, name := range names {
		child := node.children[name]
		st := FileStatus{Path: path.Join(base, name), IsDir: child.dir, Replication: child.replication}
		if !child.dir {
			for _, id := range child.blocks {
				st.Size += nn.blocks[id].Length
			}
			st.Blocks = len(child.blocks)
		}
		out = append(out, st)
	}
	return out, nil
}

// Delete removes a file (releasing its blocks) or an empty directory.
// Returns the block IDs to reclaim so datanodes can free storage.
func (nn *NameNode) Delete(p string) ([]BlockID, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("hdfs: cannot delete /")
	}
	cur := nn.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok || !next.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	node, ok := cur.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
	}
	if node.dir && len(node.children) > 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotEmpty, p)
	}
	delete(cur.children, name)
	var freed []BlockID
	for _, id := range node.blocks {
		info := nn.blocks[id]
		for _, loc := range info.Locations {
			if dn := nn.datanodes[loc]; dn != nil && dn.blocks[id] {
				delete(dn.blocks, id)
				dn.used -= info.Length
			}
		}
		delete(nn.blocks, id)
		freed = append(freed, id)
	}
	return freed, nil
}

// ---- datanode management ----

// RegisterDataNode adds (or revives) a datanode on the default rack.
func (nn *NameNode) RegisterDataNode(name string, capacity int64) {
	nn.RegisterDataNodeRack(name, capacity, DefaultRack)
}

// RegisterDataNodeRack adds (or revives) a datanode with rack topology;
// replica placement then follows Hadoop's rack policy (see chooseTargets).
func (nn *NameNode) RegisterDataNodeRack(name string, capacity int64, rack string) {
	if rack == "" {
		rack = DefaultRack
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if dn, ok := nn.datanodes[name]; ok {
		dn.alive = true
		dn.capacity = capacity
		dn.rack = rack
		return
	}
	nn.datanodes[name] = &dnInfo{
		name: name, rack: rack, capacity: capacity, alive: true, blocks: map[BlockID]bool{},
	}
}

// Rack returns a datanode's rack ("" if unknown).
func (nn *NameNode) Rack(name string) string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if dn := nn.datanodes[name]; dn != nil {
		return dn.rack
	}
	return ""
}

// LiveDataNodes returns the names of live datanodes, sorted.
func (nn *NameNode) LiveDataNodes() []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for name, dn := range nn.datanodes {
		if dn.alive {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MarkDead declares a datanode dead (missed heartbeats). Its replicas stop
// counting, so every block it held that is now short shows up in
// UnderReplicatedAll; nothing is queued.
func (nn *NameNode) MarkDead(name string) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if dn := nn.datanodes[name]; dn != nil {
		dn.alive = false
	}
}

// BlockReceived records a new replica (completed re-replication copy).
func (nn *NameNode) BlockReceived(node string, id BlockID) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	info, ok := nn.blocks[id]
	if !ok {
		return fmt.Errorf("hdfs: blockReceived for unknown block %d", id)
	}
	dn, ok := nn.datanodes[node]
	if !ok {
		return fmt.Errorf("hdfs: blockReceived from unknown node %q", node)
	}
	for _, loc := range info.Locations {
		if loc == node {
			return nil
		}
	}
	info.Locations = append(info.Locations, node)
	dn.blocks[id] = true
	dn.used += info.Length
	return nil
}

// ReportCorrupt drops a corrupt replica from the block map — the block is
// under-replicated from then on — and remembers that node served a bad copy
// of it, for PlanRepair's placement.
func (nn *NameNode) ReportCorrupt(node string, id BlockID) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	info, ok := nn.blocks[id]
	if !ok {
		return
	}
	kept := info.Locations[:0]
	for _, loc := range info.Locations {
		if loc != node {
			kept = append(kept, loc)
		}
	}
	info.Locations = kept
	if dn := nn.datanodes[node]; dn != nil && dn.blocks[id] {
		delete(dn.blocks, id)
		dn.used -= info.Length
	}
	if info.badOn == nil {
		info.badOn = map[string]bool{}
	}
	info.badOn[node] = true
}

// UnderReplicated returns blocks with fewer than want in-service replicas.
func (nn *NameNode) UnderReplicated(want int) []BlockID {
	return nn.underReplicated(func(*BlockInfo) int { return want })
}

// UnderReplicatedAll returns blocks with fewer in-service replicas than
// their own file's target replication, sorted. This scan is the whole repair
// backlog: RepairAll and the Healer both work from it, so a failed copy is
// found again on the next scan.
func (nn *NameNode) UnderReplicatedAll() []BlockID {
	return nn.underReplicated(func(info *BlockInfo) int { return info.Replication })
}

func (nn *NameNode) underReplicated(want func(*BlockInfo) int) []BlockID {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []BlockID
	for id, info := range nn.blocks {
		if nn.replicas(info) < want(info) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsAlive reports whether the named datanode is currently considered live.
func (nn *NameNode) IsAlive(name string) bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn := nn.datanodes[name]
	return dn != nil && dn.alive
}

// PlanRepair resolves one re-replication copy for id at call time: the first
// live holder as the source (a draining node qualifies) and a fresh
// in-service target holding no replica of the block — preferring one that has
// never served a bad copy of it, and falling back to such a node only when
// nothing else is left (the copy overwrites the bad bytes). healthy reports
// the block already meets its target replication (nothing to do); ok reports
// whether a task could be planned — false with healthy=false means the block
// is currently unrepairable (no live source, or nowhere to put a copy).
func (nn *NameNode) PlanRepair(id BlockID) (task ReplicationTask, healthy, ok bool) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	info := nn.blocks[id]
	if info == nil {
		return ReplicationTask{}, true, false // deleted: nothing to heal
	}
	if nn.replicas(info) >= info.Replication {
		return ReplicationTask{}, true, false
	}
	src := ""
	holders := map[string]bool{}
	for _, l := range info.Locations {
		holders[l] = true
		if dn := nn.datanodes[l]; src == "" && dn != nil && dn.alive {
			src = l
		}
	}
	if src == "" {
		return ReplicationTask{}, false, false // lost (until a node rejoins)
	}
	clean := maps.Clone(holders)
	maps.Copy(clean, info.badOn)
	targets := nn.chooseTargets(1, "", clean)
	if len(targets) == 0 {
		targets = nn.chooseTargets(1, "", holders)
	}
	if len(targets) == 0 {
		return ReplicationTask{}, false, false
	}
	return ReplicationTask{Block: id, Src: src, Dst: targets[0]}, false, true
}
