package videodb

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"videocloud/internal/metrics"
)

func videosSchema() []Column {
	return []Column{
		{Name: "title", Type: TString},
		{Name: "uploader_id", Type: TInt, Indexed: true},
		{Name: "views", Type: TInt},
	}
}

func shardedVideos(t *testing.T, n, rows int) *ShardedDB {
	t.Helper()
	s := NewSharded(n)
	if err := s.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Insert("videos", Row{
			"title": fmt.Sprintf("video %d cloud", i), "uploader_id": int64(i % 7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestShardedRoundTrip(t *testing.T) {
	s := shardedVideos(t, 4, 50)
	// Ids are globally unique and every row is readable through the router.
	seen := map[int64]bool{}
	rows, err := s.Scan("videos", func(Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("scan returned %d rows, want 50", len(rows))
	}
	for i, r := range rows {
		id, _ := r["id"].(int64)
		if seen[id] {
			t.Fatalf("duplicate id %d across shards", id)
		}
		seen[id] = true
		if i > 0 {
			prev, _ := rows[i-1]["id"].(int64)
			if prev >= id {
				t.Fatalf("scan not id-sorted: %d then %d", prev, id)
			}
		}
		got, gerr := s.Get("videos", id)
		if gerr != nil {
			t.Fatalf("Get(%d): %v", id, gerr)
		}
		if got["title"] != r["title"] {
			t.Fatalf("Get(%d) = %v, scan saw %v", id, got, r)
		}
	}
	// Rows actually spread: no shard holds everything.
	for i := 0; i < s.Shards(); i++ {
		n, _ := s.Shard(i).Count("videos")
		if n == 50 {
			t.Fatalf("shard %d holds all rows — no spreading", i)
		}
		if n == 0 {
			t.Logf("shard %d empty at 50 rows (possible but unlikely)", i)
		}
	}
	if n, _ := s.Count("videos"); n != 50 {
		t.Fatalf("Count = %d, want 50", n)
	}
	// Indexed select fans in across shards.
	mine, err := s.Select("videos", "uploader_id", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != 7 { // i % 7 == 3 for i in [0,50): 3,10,17,24,31,38,45
		t.Fatalf("Select(uploader_id=3) = %d rows", len(mine))
	}
}

func TestShardedUpdateDelete(t *testing.T) {
	s := shardedVideos(t, 3, 12)
	if err := s.Update("videos", 5, Row{"views": int64(9)}); err != nil {
		t.Fatal(err)
	}
	row, err := s.Get("videos", 5)
	if err != nil || row["views"] != int64(9) {
		t.Fatalf("after update: %v, %v", row, err)
	}
	// Add lands on the owner shard and agrees with a plain DB on errors.
	if n, err := s.Add("videos", 5, "views", 3); err != nil || n != 12 {
		t.Fatalf("Add = %d, %v, want 12", n, err)
	}
	if row, _ := s.Get("videos", 5); row["views"] != int64(12) {
		t.Fatalf("after Add: %v", row)
	}
	if _, err := s.Add("videos", 5, "title", 1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Add on a string column = %v, want ErrTypeMismatch", err)
	}
	if _, err := s.Add("videos", 99, "views", 1); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Add on a missing row = %v, want ErrNoRow", err)
	}
	if err := s.Delete("videos", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("videos", 5); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Get after delete = %v, want ErrNoRow", err)
	}
	if n, _ := s.Count("videos"); n != 11 {
		t.Fatalf("Count after delete = %d", n)
	}
}

func TestShardedUniqueAcrossShards(t *testing.T) {
	s := NewSharded(4)
	if err := s.CreateTable("users",
		Column{Name: "username", Type: TString, Unique: true},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("users", Row{"username": "alice"}); err != nil {
		t.Fatal(err)
	}
	// A duplicate username must be rejected even when its id hashes to a
	// different shard than alice's — per-shard indexes cannot see that.
	var dup int
	for i := 0; i < 20; i++ {
		_, err := s.Insert("users", Row{"username": "alice"})
		if errors.Is(err, ErrUnique) {
			dup++
			continue
		}
		t.Fatalf("insert %d: err = %v, want ErrUnique", i, err)
	}
	if dup != 20 {
		t.Fatalf("only %d/20 duplicates rejected", dup)
	}
	// Update to a taken name is rejected; to a fresh one allowed.
	id, err := s.Insert("users", Row{"username": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update("users", id, Row{"username": "alice"}); !errors.Is(err, ErrUnique) {
		t.Fatalf("update to taken name: %v, want ErrUnique", err)
	}
	if err := s.Update("users", id, Row{"username": "carol"}); err != nil {
		t.Fatal(err)
	}
	// Updating a row's unique column to its own current value is a no-op,
	// not a collision.
	if err := s.Update("users", id, Row{"username": "carol"}); err != nil {
		t.Fatalf("self-update: %v", err)
	}
}

// TestShardedEmptyShard drives fan-in over a layout where at least one shard
// holds no rows for the table: results must be complete and error-free.
func TestShardedEmptyShard(t *testing.T) {
	s := NewSharded(8)
	if err := s.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	// Two rows over eight shards: at least six shards are empty.
	for i := 0; i < 2; i++ {
		if _, err := s.Insert("videos", Row{"title": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Scan("videos", func(Row) bool { return true })
	if err != nil || len(rows) != 2 {
		t.Fatalf("scan over mostly-empty shards: %d rows, %v", len(rows), err)
	}
	last, err := s.ScanLast("videos", 10)
	if err != nil || len(last) != 2 {
		t.Fatalf("ScanLast over mostly-empty shards: %d rows, %v", len(last), err)
	}
	hits, err := s.ScanSubstring("videos", "title", "x")
	if err != nil || len(hits) != 2 {
		t.Fatalf("ScanSubstring over mostly-empty shards: %d rows, %v", len(hits), err)
	}
	if n, _ := s.Count("videos"); n != 2 {
		t.Fatalf("Count = %d", n)
	}
}

// faultStore wraps a shard and fails scan-family calls after arm is set —
// the mid-scatter failure mode (a shard going down while siblings answer).
type faultStore struct {
	Store
	mu  sync.Mutex
	arm bool
}

func (f *faultStore) failing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.arm
}

var errShardDown = errors.New("shard down")

func (f *faultStore) Scan(table string, pred func(Row) bool) ([]Row, error) {
	if f.failing() {
		return nil, errShardDown
	}
	return f.Store.Scan(table, pred)
}

func (f *faultStore) ScanLast(table string, n int) ([]Row, error) {
	if f.failing() {
		return nil, errShardDown
	}
	return f.Store.ScanLast(table, n)
}

func (f *faultStore) Select(table, col string, value any) ([]Row, error) {
	if f.failing() {
		return nil, errShardDown
	}
	return f.Store.Select(table, col, value)
}

// TestShardedScatterError arms a failure on one shard and asserts every
// fan-in operation reports the error instead of silently returning the
// surviving shards' partial results.
func TestShardedScatterError(t *testing.T) {
	fault := &faultStore{Store: New()}
	shards := []Store{New(), fault, New(), New()}
	s := NewShardedFrom(shards)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	if err := s.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Insert("videos", Row{"title": "t", "uploader_id": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: healthy fan-in sees all rows.
	rows, err := s.Scan("videos", func(Row) bool { return true })
	if err != nil || len(rows) != 40 {
		t.Fatalf("healthy scan: %d rows, %v", len(rows), err)
	}
	fault.mu.Lock()
	fault.arm = true
	fault.mu.Unlock()
	if _, err := s.Scan("videos", func(Row) bool { return true }); !errors.Is(err, errShardDown) {
		t.Fatalf("Scan with downed shard: %v, want errShardDown", err)
	}
	if _, err := s.ScanLast("videos", 10); !errors.Is(err, errShardDown) {
		t.Fatalf("ScanLast with downed shard: %v, want errShardDown", err)
	}
	if _, err := s.Select("videos", "uploader_id", int64(1)); !errors.Is(err, errShardDown) {
		t.Fatalf("Select with downed shard: %v, want errShardDown", err)
	}
	if got := reg.Counter("videodb_scatter_errors").Value(); got < 3 {
		t.Fatalf("scatter error counter = %d, want >= 3", got)
	}
	// Id-addressed ops to healthy shards keep working.
	healthy := int64(0)
	for id := int64(1); id <= 40; id++ {
		if s.ShardOf(id) != 1 {
			healthy = id
			break
		}
	}
	if _, err := s.Get("videos", healthy); err != nil {
		t.Fatalf("Get on healthy shard during sibling outage: %v", err)
	}
}

// TestShardedPlacementDeterminism rebuilds the store from scratch twice and
// requires byte-identical shard layouts — restarts must not rebalance.
func TestShardedPlacementDeterminism(t *testing.T) {
	build := func() *ShardedDB {
		s := NewSharded(5)
		if err := s.CreateTable("videos", videosSchema()...); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, err := s.Insert("videos", Row{"title": fmt.Sprintf("v%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b := build(), build()
	for i := 0; i < a.Shards(); i++ {
		ra, _ := a.Shard(i).Scan("videos", func(Row) bool { return true })
		rb, _ := b.Shard(i).Scan("videos", func(Row) bool { return true })
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("shard %d layout differs across rebuilds", i)
		}
	}
	// ShardOf is a pure function of the id: every row sits on exactly the
	// shard the hash names, on both rebuilds.
	for id := int64(1); id <= 64; id++ {
		want := a.ShardOf(id)
		if got := b.ShardOf(id); got != want {
			t.Fatalf("ShardOf(%d) differs across instances: %d vs %d", id, want, got)
		}
		if _, err := a.Shard(want).Get("videos", id); err != nil {
			t.Fatalf("id %d not on its ShardOf shard %d: %v", id, want, err)
		}
	}
}

// TestShardedExplicitPlacement pins InsertAt/RawPutAt rows to their hash
// shard and keeps the sequence ahead of explicit ids.
func TestShardedExplicitPlacement(t *testing.T) {
	s := NewSharded(3)
	if err := s.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertAt("videos", 100, Row{"title": "pinned"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shard(s.ShardOf(100)).Get("videos", 100); err != nil {
		t.Fatalf("pinned row not on its hash shard: %v", err)
	}
	// The global sequence must jump past 100 so the next Insert cannot
	// collide.
	id, err := s.Insert("videos", Row{"title": "next"})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 100 {
		t.Fatalf("Insert after InsertAt(100) assigned id %d", id)
	}
	if err := s.RawPutAt("videos", 200, Row{"title": 7}); err != nil { // raw: wrong type allowed
		t.Fatal(err)
	}
	row, err := s.Get("videos", 200)
	if err != nil || row["title"] != 7 {
		t.Fatalf("RawPutAt row: %v, %v", row, err)
	}
}

func TestShardedScanLastOrder(t *testing.T) {
	s := shardedVideos(t, 4, 30)
	last, err := s.ScanLast("videos", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 10 {
		t.Fatalf("ScanLast(10) = %d rows", len(last))
	}
	for i, r := range last {
		id, _ := r["id"].(int64)
		if want := int64(30 - i); id != want {
			t.Fatalf("ScanLast[%d] id = %d, want %d (newest first)", i, id, want)
		}
	}
}

func TestShardedMetrics(t *testing.T) {
	s := NewSharded(3)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	if err := s.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := s.Insert("videos", Row{"title": "m"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan("videos", func(Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("videodb_scatters").Value(); got != 1 {
		t.Fatalf("scatters = %d, want 1", got)
	}
	var observed int64
	for i := 0; i < 3; i++ {
		observed += reg.Histogram(fmt.Sprintf("videodb_shard%d_seconds", i)).Count()
	}
	// 9 single-shard inserts + 3 per-shard scatter legs.
	if observed != 12 {
		t.Fatalf("per-shard latency observations = %d, want 12", observed)
	}
}

func TestShardedConcurrent(t *testing.T) {
	s := shardedVideos(t, 4, 0)
	counted, err := s.Insert("videos", Row{"title": "counted"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id, err := s.Insert("videos", Row{"title": fmt.Sprintf("w%d-%d", w, i)})
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := s.Get("videos", id); err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				if _, err := s.Add("videos", counted, "views", 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				if i%5 == 0 {
					if _, err := s.ScanLast("videos", 10); err != nil {
						t.Errorf("scanlast: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := s.Count("videos"); n != 201 {
		t.Fatalf("Count = %d, want 201", n)
	}
	// Every increment counted: Add is a read-modify-write under the lock.
	if row, _ := s.Get("videos", counted); row["views"] != int64(200) {
		t.Fatalf("views after 200 concurrent Adds = %v", row["views"])
	}
}

// TestProjectMatchesGet holds Project to Get, its oracle, on one store and a
// sharded one: every projection of every row — including a column the row
// lacks and a repeated one — reads what Get's copy holds, and writing to a
// projection changes nothing stored.
func TestProjectMatchesGet(t *testing.T) {
	single := New()
	if err := single.CreateTable("videos", videosSchema()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := single.Insert("videos", Row{"title": fmt.Sprintf("video %d", i), "uploader_id": int64(i % 3), "views": int64(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	projections := [][]string{
		{"id", "title", "uploader_id", "views"},
		{"views", "id"},
		{"title", "no_such_column", "title"},
		{},
	}
	for _, tc := range []struct {
		name  string
		store Store
	}{{"DB", single}, {"ShardedDB", shardedVideos(t, 4, 20)}} {
		rows, err := tc.store.Scan("videos", func(Row) bool { return true })
		if err != nil || len(rows) != 20 {
			t.Fatalf("%s: scan found %d rows, %v", tc.name, len(rows), err)
		}
		// Every projection is taken before any is checked, so one that
		// shared its slice with a later one would read the later row.
		type taken struct {
			id   int64
			cols []string
			vals []any
		}
		var all []taken
		for _, row := range rows {
			for _, cols := range projections {
				id := row["id"].(int64)
				vals, err := tc.store.Project("videos", id, cols)
				if err != nil {
					t.Fatalf("%s: Project(%d, %q): %v", tc.name, id, cols, err)
				}
				all = append(all, taken{id, cols, vals})
			}
		}
		for _, p := range all {
			want, _ := tc.store.Get("videos", p.id)
			if len(p.vals) != len(p.cols) {
				t.Fatalf("%s: Project(%d, %q) = %v, want %d values", tc.name, p.id, p.cols, p.vals, len(p.cols))
			}
			for i, col := range p.cols {
				if p.vals[i] != want[col] {
					t.Fatalf("%s: Project(%d, %q)[%d] = %v, Get has %v", tc.name, p.id, p.cols, i, p.vals[i], want[col])
				}
				p.vals[i] = "overwritten"
			}
			if again, _ := tc.store.Get("videos", p.id); !maps.Equal(again, want) {
				t.Fatalf("%s: writing to a projection of row %d changed it: %v, was %v", tc.name, p.id, again, want)
			}
		}
		if _, err := tc.store.Project("videos", 999, []string{"id"}); !errors.Is(err, ErrNoRow) {
			t.Fatalf("%s: Project of a missing row: %v, want ErrNoRow", tc.name, err)
		}
		if _, err := tc.store.Project("nope", 1, []string{"id"}); !errors.Is(err, ErrNoTable) {
			t.Fatalf("%s: Project of a missing table: %v, want ErrNoTable", tc.name, err)
		}
	}
}
