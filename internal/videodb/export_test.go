package videodb

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// Shard exposes shard i (experiments inspect per-shard balance).
func (s *ShardedDB) Shard(i int) Store { return s.shards[i] }
