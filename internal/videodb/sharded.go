// ShardedDB scales the metadata tier horizontally: rows are hashed across N
// independent DB shards by primary key, so writes and id-addressed reads
// touch exactly one shard while search/home/scan queries visit all of them in
// turn. This is the million-user growth path of the paper's single MySQL
// instance — the same schema, cut into hash buckets a fleet of frontends can
// hammer without convoying on one lock.
//
// Placement is a pure function of the row id (splitmix64 mod shard count),
// so a restart — or a second process building the same store — reproduces
// the exact same layout with no rebalance: determinism the fan-in tests
// gate. Ids are assigned by the router from a per-table sequence, never by
// the shards, keeping them globally unique.
package videodb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/metrics"
)

// ShardedDB routes Store operations across N DB shards. Safe for concurrent
// use.
type ShardedDB struct {
	shards []Store

	// seq assigns globally unique ids per table (the shards' own
	// auto-increment is bypassed via InsertAt).
	seqMu sync.Mutex
	seq   map[string]*atomic.Int64

	// uniqueMu serialises check-then-insert on tables with unique columns:
	// per-shard unique indexes cannot see a duplicate landing on a sibling
	// shard, so the router checks cross-shard under this lock.
	uniqueMu   sync.Mutex
	uniqueCols map[string][]string

	// Optional instrumentation (SetMetrics): per-shard query latency plus
	// scatter fan-in counters.
	shardLatency []*metrics.Histogram
	scatters     *metrics.Counter
	scatterErrs  *metrics.Counter
}

// NewSharded returns a store of n empty shards (n >= 1).
func NewSharded(n int) *ShardedDB {
	if n < 1 {
		panic(fmt.Sprintf("videodb: NewSharded(%d)", n))
	}
	shards := make([]Store, n)
	for i := range shards {
		shards[i] = New()
	}
	return NewShardedFrom(shards)
}

// NewShardedFrom builds the router over caller-supplied shards — the test
// seam for fault injection (wrap one shard in an erroring Store) and for
// reopening an existing layout.
func NewShardedFrom(shards []Store) *ShardedDB {
	if len(shards) == 0 {
		panic("videodb: NewShardedFrom with no shards")
	}
	return &ShardedDB{
		shards:     shards,
		seq:        make(map[string]*atomic.Int64),
		uniqueCols: make(map[string][]string),
	}
}

// SetMetrics points per-shard latency histograms (videodb_shard<i>_seconds)
// and scatter counters at reg. Call before serving traffic.
func (s *ShardedDB) SetMetrics(reg *metrics.Registry) {
	s.shardLatency = make([]*metrics.Histogram, len(s.shards))
	for i := range s.shards {
		s.shardLatency[i] = reg.Histogram(fmt.Sprintf("videodb_shard%d_seconds", i))
	}
	s.scatters = reg.Counter("videodb_scatters")
	s.scatterErrs = reg.Counter("videodb_scatter_errors")
}

// splitmix64 is the id mixer behind placement: a full-avalanche finalizer so
// sequential ids spread uniformly over shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardOf returns the shard index owning id — a pure function of (id, shard
// count), identical across restarts.
func (s *ShardedDB) ShardOf(id int64) int {
	return int(splitmix64(uint64(id)) % uint64(len(s.shards)))
}

func (s *ShardedDB) owner(id int64) Store { return s.shards[s.ShardOf(id)] }

// observe records a shard-local query latency when metrics are armed.
func (s *ShardedDB) observe(shard int, start time.Time) {
	if s.shardLatency != nil {
		s.shardLatency[shard].ObserveDuration(time.Since(start))
	}
}

// CreateTable declares the table on every shard and starts its id sequence.
func (s *ShardedDB) CreateTable(name string, cols ...Column) error {
	for _, sh := range s.shards {
		if err := sh.CreateTable(name, cols...); err != nil {
			return err
		}
	}
	s.seqMu.Lock()
	if _, ok := s.seq[name]; !ok {
		s.seq[name] = &atomic.Int64{}
	}
	var unique []string
	for _, c := range cols {
		if c.Unique {
			unique = append(unique, c.Name)
		}
	}
	s.uniqueCols[name] = unique
	s.seqMu.Unlock()
	return nil
}

// nextID draws the next global id for table.
func (s *ShardedDB) nextID(table string) (int64, error) {
	s.seqMu.Lock()
	seq, ok := s.seq[table]
	s.seqMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return seq.Add(1), nil
}

// bumpSeq keeps the sequence ahead of an explicitly placed id.
func (s *ShardedDB) bumpSeq(table string, id int64) {
	s.seqMu.Lock()
	seq, ok := s.seq[table]
	s.seqMu.Unlock()
	if !ok {
		return
	}
	for {
		cur := seq.Load()
		if cur >= id || seq.CompareAndSwap(cur, id) {
			return
		}
	}
}

// checkUniqueAcrossShards rejects a row whose unique-column value exists on
// any shard. Caller holds uniqueMu when the table has unique columns.
func (s *ShardedDB) checkUniqueAcrossShards(table string, row Row, selfID int64) error {
	s.seqMu.Lock()
	unique := s.uniqueCols[table]
	s.seqMu.Unlock()
	for _, col := range unique {
		v, ok := row[col]
		if !ok {
			// Insert defaults the column to its zero value; collide on that.
			v = zeroOf(col, table, s.shards[0])
		}
		rows, err := s.Select(table, col, v)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if id, _ := r["id"].(int64); id != selfID {
				return fmt.Errorf("%w: %s.%s = %v", ErrUnique, table, col, v)
			}
		}
	}
	return nil
}

// zeroOf resolves the zero value a shard would default col to. Falls back to
// "" (the only unique column in this schema is a string) when the shard
// cannot be asked.
func zeroOf(col, table string, sh Store) any {
	db, ok := sh.(*DB)
	if !ok {
		return ""
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(table)
	if err != nil {
		return ""
	}
	switch t.cols[col].Type {
	case TInt:
		return int64(0)
	case TBool:
		return false
	case TFloat:
		return float64(0)
	default:
		return ""
	}
}

// Insert assigns a global id, hashes it to a shard, and stores the row
// there. Unique columns are enforced across the whole shard set.
func (s *ShardedDB) Insert(table string, row Row) (int64, error) {
	s.seqMu.Lock()
	unique := len(s.uniqueCols[table]) > 0
	s.seqMu.Unlock()
	if unique {
		s.uniqueMu.Lock()
		defer s.uniqueMu.Unlock()
		if err := s.checkUniqueAcrossShards(table, row, 0); err != nil {
			return 0, err
		}
	}
	id, err := s.nextID(table)
	if err != nil {
		return 0, err
	}
	shard := s.ShardOf(id)
	start := time.Now()
	err = s.shards[shard].InsertAt(table, id, row)
	s.observe(shard, start)
	if err != nil {
		return 0, err
	}
	return id, nil
}

// InsertAt places a row under an explicit id on its hash-owned shard.
func (s *ShardedDB) InsertAt(table string, id int64, row Row) error {
	if err := s.owner(id).InsertAt(table, id, row); err != nil {
		return err
	}
	s.bumpSeq(table, id)
	return nil
}

// RawPut stores an unvalidated row (the schema-drift fault injector) under a
// fresh global id on its hash-owned shard.
func (s *ShardedDB) RawPut(table string, row Row) (int64, error) {
	id, err := s.nextID(table)
	if err != nil {
		return 0, err
	}
	if err := s.owner(id).RawPutAt(table, id, row); err != nil {
		return 0, err
	}
	return id, nil
}

// RawPutAt stores an unvalidated row under an explicit id.
func (s *ShardedDB) RawPutAt(table string, id int64, row Row) error {
	if err := s.owner(id).RawPutAt(table, id, row); err != nil {
		return err
	}
	s.bumpSeq(table, id)
	return nil
}

// Get reads the row from its hash-owned shard.
func (s *ShardedDB) Get(table string, id int64) (Row, error) {
	shard := s.ShardOf(id)
	start := time.Now()
	row, err := s.shards[shard].Get(table, id)
	s.observe(shard, start)
	return row, err
}

// Project reads the row's named columns from its hash-owned shard.
func (s *ShardedDB) Project(table string, id int64, cols []string) ([]any, error) {
	shard := s.ShardOf(id)
	start := time.Now()
	vals, err := s.shards[shard].Project(table, id, cols)
	s.observe(shard, start)
	return vals, err
}

// Update modifies the row on its hash-owned shard, re-checking unique
// columns fleet-wide first.
func (s *ShardedDB) Update(table string, id int64, changes Row) error {
	s.seqMu.Lock()
	unique := s.uniqueCols[table]
	s.seqMu.Unlock()
	touchesUnique := false
	for _, col := range unique {
		if _, ok := changes[col]; ok {
			touchesUnique = true
			break
		}
	}
	if touchesUnique {
		s.uniqueMu.Lock()
		defer s.uniqueMu.Unlock()
		if err := s.checkUniqueAcrossShards(table, changes, id); err != nil {
			return err
		}
	}
	shard := s.ShardOf(id)
	start := time.Now()
	err := s.shards[shard].Update(table, id, changes)
	s.observe(shard, start)
	return err
}

// Add increments an integer column on the row's hash-owned shard, under that
// shard's lock.
func (s *ShardedDB) Add(table string, id int64, col string, delta int64) (int64, error) {
	shard := s.ShardOf(id)
	start := time.Now()
	n, err := s.shards[shard].Add(table, id, col, delta)
	s.observe(shard, start)
	return n, err
}

// Delete removes the row from its hash-owned shard.
func (s *ShardedDB) Delete(table string, id int64) error {
	return s.owner(id).Delete(table, id)
}

// scatter runs fn against every shard in turn, on the calling goroutine, and
// merges their rows into one id-sorted slice. The shards are in-process maps,
// so a leg costs less than the goroutine, semaphore slot and wake-up a
// concurrent fan-out would pay for it. Any shard error fails the whole
// operation — partial fan-in results are never returned as if they were
// complete.
func (s *ShardedDB) scatter(fn func(sh Store) ([]Row, error)) ([]Row, error) {
	if s.scatters != nil {
		s.scatters.Inc()
	}
	var out []Row
	for i, sh := range s.shards {
		start := time.Now()
		rows, err := fn(sh)
		s.observe(i, start)
		if err != nil {
			if s.scatterErrs != nil {
				s.scatterErrs.Inc()
			}
			return nil, err
		}
		out = append(out, rows...)
	}
	slices.SortFunc(out, func(a, b Row) int {
		x, _ := a["id"].(int64)
		y, _ := b["id"].(int64)
		return cmp.Compare(x, y)
	})
	return out, nil
}

// Select fans col == value out across shards (id lookups route directly).
func (s *ShardedDB) Select(table, col string, value any) ([]Row, error) {
	if col == "id" {
		if id, ok := value.(int64); ok {
			row, err := s.Get(table, id)
			if errors.Is(err, ErrNoRow) {
				return nil, nil // Select semantics: no match is empty, not an error
			}
			if err != nil {
				return nil, err
			}
			return []Row{row}, nil
		}
	}
	return s.scatter(func(sh Store) ([]Row, error) {
		return sh.Select(table, col, value)
	})
}

// SelectOne returns the lowest-id row matching col == value, or ErrNoRow.
func (s *ShardedDB) SelectOne(table, col string, value any) (Row, error) {
	rows, err := s.Select(table, col, value)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: %s where %s = %v", ErrNoRow, table, col, value)
	}
	return rows[0], nil
}

// Scan fans the predicate out across shards and merges by id.
func (s *ShardedDB) Scan(table string, pred func(Row) bool) ([]Row, error) {
	return s.scatter(func(sh Store) ([]Row, error) {
		return sh.Scan(table, pred)
	})
}

// ScanLast asks every shard for its n newest rows and keeps the n globally
// newest — each shard's bounded reverse scan keeps the fan-in O(shards * n).
func (s *ShardedDB) ScanLast(table string, n int) ([]Row, error) {
	if n <= 0 {
		return nil, nil
	}
	merged, err := s.scatter(func(sh Store) ([]Row, error) {
		return sh.ScanLast(table, n)
	})
	if err != nil {
		return nil, err
	}
	if len(merged) > n {
		merged = merged[len(merged)-n:]
	}
	// ScanLast contract: newest first.
	for i, j := 0, len(merged)-1; i < j; i, j = i+1, j-1 {
		merged[i], merged[j] = merged[j], merged[i]
	}
	return merged, nil
}

// ScanSubstring fans the LIKE '%needle%' baseline out across shards.
func (s *ShardedDB) ScanSubstring(table, col, needle string) ([]Row, error) {
	return s.scatter(func(sh Store) ([]Row, error) {
		return sh.ScanSubstring(table, col, needle)
	})
}

// Count sums row counts across shards.
func (s *ShardedDB) Count(table string) (int, error) {
	total := 0
	for _, sh := range s.shards {
		n, err := sh.Count(table)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Tables lists table names (identical on every shard by construction).
func (s *ShardedDB) Tables() []string { return s.shards[0].Tables() }
