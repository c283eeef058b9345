//go:build !race

package videodb

import "testing"

// shardedSelectAllocs is the budget for an indexed Select that matches
// nothing over four shards — the watch page's comments query on a title
// nobody commented on. The concurrent scatter this replaced paid 14 here: a
// goroutine per shard, its semaphore and WaitGroup, the per-shard result
// slice and the sort's boxing.
const shardedSelectAllocs = 1

// TestAllocShardedSelect gates what a scatter costs the caller: the legs run
// inline, so the count is the shards' own lookups plus the fan-in.
func TestAllocShardedSelect(t *testing.T) {
	s := shardedVideos(t, 4, 40)
	var value any = int64(99) // no row has uploader 99; boxed once, outside the count
	got := testing.AllocsPerRun(200, func() {
		rows, err := s.Select("videos", "uploader_id", value)
		if err != nil || len(rows) != 0 {
			t.Fatalf("Select: %d rows, %v", len(rows), err)
		}
	})
	t.Logf("an empty indexed Select over 4 shards allocates %.0f times (budget %d)", got, shardedSelectAllocs)
	if got > shardedSelectAllocs {
		t.Errorf("an empty indexed Select over 4 shards allocates %.0f times, want at most %d", got, shardedSelectAllocs)
	}
}

// TestAllocProject gates the projecting read the delivery handlers and the
// page handlers make per request: the returned slice is its one allocation,
// where Get's whole-row copy costs four.
func TestAllocProject(t *testing.T) {
	s := shardedVideos(t, 4, 40)
	cols := []string{"id", "title", "uploader_id", "views"}
	got := testing.AllocsPerRun(200, func() {
		if vals, err := s.Project("videos", 7, cols); err != nil || vals[0] != int64(7) {
			t.Fatalf("Project: %v, %v", vals, err)
		}
	})
	t.Logf("a projection of 4 columns allocates %.0f times", got)
	if got > 1 {
		t.Errorf("a projection of 4 columns allocates %.0f times, want at most 1", got)
	}
}
