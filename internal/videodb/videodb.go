// Package videodb is the MySQL stand-in of the paper's §IV: "we use MySQL
// in database to store a user's account, passwords, and film information."
//
// It is a small embedded relational store: typed columns, auto-increment
// primary keys, unique constraints, hash secondary indexes for equality
// lookups, and full-table scans with predicates. The scan path doubles as
// the experiment E4 baseline — "the traditional way which searches directly
// in the database" that the cloud search engine is compared against.
package videodb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ColType is a column's type.
type ColType int

// Column types.
const (
	TInt ColType = iota
	TString
	TBool
	TFloat
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TString:
		return "string"
	case TBool:
		return "bool"
	case TFloat:
		return "float"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column declares one field of a table.
type Column struct {
	Name string
	Type ColType
	// Unique enforces per-column uniqueness (e.g. usernames).
	Unique bool
	// Indexed builds a hash index for fast equality Select.
	Indexed bool
}

// Row maps column names to values. The primary key is the reserved column
// "id" (int64), assigned on insert.
type Row map[string]any

// Store is the metadata-store surface the serving tier programs against.
// *DB implements it directly; *ShardedDB implements it by routing
// id-addressed operations to one shard and fanning scans out across all of
// them. Tests inject faults by wrapping a Store.
type Store interface {
	CreateTable(name string, cols ...Column) error
	Insert(table string, row Row) (int64, error)
	InsertAt(table string, id int64, row Row) error
	RawPut(table string, row Row) (int64, error)
	RawPutAt(table string, id int64, row Row) error
	Get(table string, id int64) (Row, error)
	Project(table string, id int64, cols []string) ([]any, error)
	Update(table string, id int64, changes Row) error
	Add(table string, id int64, col string, delta int64) (int64, error)
	Delete(table string, id int64) error
	Select(table, col string, value any) ([]Row, error)
	SelectOne(table, col string, value any) (Row, error)
	Scan(table string, pred func(Row) bool) ([]Row, error)
	ScanLast(table string, n int) ([]Row, error)
	ScanSubstring(table, col, needle string) ([]Row, error)
	Count(table string) (int, error)
	Tables() []string
}

// Errors returned by the store.
var (
	ErrNoTable      = errors.New("videodb: no such table")
	ErrTableExists  = errors.New("videodb: table exists")
	ErrNoRow        = errors.New("videodb: no such row")
	ErrBadColumn    = errors.New("videodb: unknown column")
	ErrTypeMismatch = errors.New("videodb: value type mismatch")
	ErrUnique       = errors.New("videodb: unique constraint violation")
	ErrDupID        = errors.New("videodb: row id already taken")
)

type table struct {
	name    string
	cols    map[string]Column
	order   []string
	rows    map[int64]Row
	nextID  int64
	indexes map[string]map[any][]int64 // col -> value -> ids
}

// DB is an embedded multi-table store, safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable declares a table. The "id" primary key is implicit and must
// not be declared.
func (db *DB) CreateTable(name string, cols ...Column) error {
	if name == "" {
		return fmt.Errorf("videodb: empty table name")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := &table{
		name:    name,
		cols:    make(map[string]Column, len(cols)),
		rows:    make(map[int64]Row),
		indexes: make(map[string]map[any][]int64),
	}
	for _, c := range cols {
		if c.Name == "" || c.Name == "id" {
			return fmt.Errorf("videodb: bad column name %q", c.Name)
		}
		if _, dup := t.cols[c.Name]; dup {
			return fmt.Errorf("videodb: duplicate column %q", c.Name)
		}
		t.cols[c.Name] = c
		t.order = append(t.order, c.Name)
		if c.Unique || c.Indexed {
			t.indexes[c.Name] = make(map[any][]int64)
		}
	}
	db.tables[name] = t
	return nil
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

func (t *table) checkValue(col string, v any) error {
	c, ok := t.cols[col]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrBadColumn, t.name, col)
	}
	okType := false
	switch c.Type {
	case TInt:
		_, okType = v.(int64)
	case TString:
		_, okType = v.(string)
	case TBool:
		_, okType = v.(bool)
	case TFloat:
		_, okType = v.(float64)
	}
	if !okType {
		return fmt.Errorf("%w: %s.%s wants %v, got %T", ErrTypeMismatch, t.name, col, c.Type, v)
	}
	return nil
}

// validateFull type-checks row and returns a copy with zero-value defaults
// for every undeclared column. Caller holds the write lock.
func (t *table) validateFull(row Row) (Row, error) {
	full := make(Row, len(t.cols))
	for col, v := range row {
		if err := t.checkValue(col, v); err != nil {
			return nil, err
		}
		full[col] = v
	}
	for _, col := range t.order {
		if _, ok := full[col]; ok {
			continue
		}
		switch t.cols[col].Type {
		case TInt:
			full[col] = int64(0)
		case TString:
			full[col] = ""
		case TBool:
			full[col] = false
		case TFloat:
			full[col] = float64(0)
		}
	}
	return full, nil
}

// checkUnique rejects the row when a unique column collides with an existing
// row. Caller holds the write lock.
func (t *table) checkUnique(full Row) error {
	for col := range t.indexes {
		if t.cols[col].Unique {
			if ids := t.indexes[col][full[col]]; len(ids) > 0 {
				return fmt.Errorf("%w: %s.%s = %v", ErrUnique, t.name, col, full[col])
			}
		}
	}
	return nil
}

// put stores full under id and maintains the indexes. Caller holds the write
// lock and has validated the row.
func (t *table) put(id int64, full Row) {
	full["id"] = id
	t.rows[id] = full
	for col, idx := range t.indexes {
		idx[full[col]] = append(idx[full[col]], id)
	}
}

// Insert adds a row and returns its assigned id. Missing columns default to
// zero values; unknown columns or wrong types fail.
func (db *DB) Insert(tableName string, row Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	full, err := t.validateFull(row)
	if err != nil {
		return 0, err
	}
	if err := t.checkUnique(full); err != nil {
		return 0, err
	}
	t.nextID++
	t.put(t.nextID, full)
	return t.nextID, nil
}

// InsertAt adds a row under a caller-chosen primary key — the placement
// primitive the sharding router uses to keep ids globally unique while each
// shard stores only its hash bucket. The id must be positive and unused;
// auto-increment continues past it.
func (db *DB) InsertAt(tableName string, id int64, row Row) error {
	if id <= 0 {
		return fmt.Errorf("videodb: InsertAt id must be positive, got %d", id)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	if _, taken := t.rows[id]; taken {
		return fmt.Errorf("%w: %s[%d]", ErrDupID, tableName, id)
	}
	full, err := t.validateFull(row)
	if err != nil {
		return err
	}
	if err := t.checkUnique(full); err != nil {
		return err
	}
	if id > t.nextID {
		t.nextID = id
	}
	t.put(id, full)
	return nil
}

// RawPut stores a row verbatim, bypassing column and type validation, and
// returns the assigned id. It reproduces the real deployment's failure mode —
// a MySQL row written by an older binary or a drifted schema — so serving-
// path code can be tested against malformed rows that Insert would reject.
// Values destined for indexed columns must be comparable.
func (db *DB) RawPut(tableName string, row Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	full := copyRow(row)
	t.nextID++
	id := t.nextID
	full["id"] = id
	t.rows[id] = full
	for col, idx := range t.indexes {
		idx[full[col]] = append(idx[full[col]], id)
	}
	return id, nil
}

// RawPutAt is RawPut under a caller-chosen primary key (the sharding
// router's fault-injection placement path). The id must be positive and
// unused.
func (db *DB) RawPutAt(tableName string, id int64, row Row) error {
	if id <= 0 {
		return fmt.Errorf("videodb: RawPutAt id must be positive, got %d", id)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	if _, taken := t.rows[id]; taken {
		return fmt.Errorf("%w: %s[%d]", ErrDupID, tableName, id)
	}
	if id > t.nextID {
		t.nextID = id
	}
	t.put(id, copyRow(row))
	return nil
}

// Get returns a copy of the row with the given id.
func (db *DB) Get(tableName string, id int64) (Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	row, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%d]", ErrNoRow, tableName, id)
	}
	return copyRow(row), nil
}

// Project returns the named columns of the row with the given id, in the
// order cols names them; a column the row does not hold reads nil. Like Get
// it returns a copy — changing the slice changes nothing stored — but it
// copies only what the caller reads, in one allocation where a whole row
// costs a map.
func (db *DB) Project(tableName string, id int64, cols []string) ([]any, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	row, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%d]", ErrNoRow, tableName, id)
	}
	out := make([]any, len(cols))
	for i, col := range cols {
		out[i] = row[col]
	}
	return out, nil
}

func copyRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Update overwrites the given columns of a row.
func (db *DB) Update(tableName string, id int64, changes Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	row, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("%w: %s[%d]", ErrNoRow, tableName, id)
	}
	for col, v := range changes {
		if err := t.checkValue(col, v); err != nil {
			return err
		}
	}
	// Unique checks against other rows.
	for col, v := range changes {
		if !t.cols[col].Unique {
			continue
		}
		for _, other := range t.indexes[col][v] {
			if other != id {
				return fmt.Errorf("%w: %s.%s = %v", ErrUnique, t.name, col, v)
			}
		}
	}
	for col, v := range changes {
		t.set(row, id, col, v)
	}
	return nil
}

// set stores v in one column of a stored row, moving id between the column's
// index buckets. Caller holds the write lock and has validated v.
func (t *table) set(row Row, id int64, col string, v any) {
	if idx, ok := t.indexes[col]; ok {
		old := row[col]
		idx[old] = removeID(idx[old], id)
		if len(idx[old]) == 0 {
			delete(idx, old)
		}
		idx[v] = append(idx[v], id)
	}
	row[col] = v
}

// Add adds delta to an integer column under the write lock and returns the
// new value — the read-modify-write a view or report counter needs, which a
// Get followed by an Update cannot do without losing concurrent increments.
// A unique column is refused: a counter has no business being one, and a
// sharded store could not check the new value against its other shards.
func (db *DB) Add(tableName string, id int64, col string, delta int64) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	row, ok := t.rows[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s[%d]", ErrNoRow, tableName, id)
	}
	c, ok := t.cols[col]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrBadColumn, t.name, col)
	}
	// The stored value is checked too: a RawPut row may hold anything.
	cur, isInt := row[col].(int64)
	if c.Type != TInt || !isInt {
		return 0, fmt.Errorf("%w: %s.%s is %v holding %T, Add wants int", ErrTypeMismatch, t.name, col, c.Type, row[col])
	}
	if c.Unique {
		return 0, fmt.Errorf("videodb: Add on unique column %s.%s", t.name, col)
	}
	n := cur + delta
	t.set(row, id, col, n)
	return n, nil
}

func removeID(ids []int64, id int64) []int64 {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// Delete removes a row.
func (db *DB) Delete(tableName string, id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	row, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("%w: %s[%d]", ErrNoRow, tableName, id)
	}
	for col, idx := range t.indexes {
		v := row[col]
		idx[v] = removeID(idx[v], id)
		if len(idx[v]) == 0 {
			delete(idx, v)
		}
	}
	delete(t.rows, id)
	return nil
}

// Select returns rows where col == value, using the hash index when one
// exists, else scanning. Results are sorted by id.
func (db *DB) Select(tableName, col string, value any) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	if col != "id" {
		if err := t.checkValue(col, value); err != nil {
			return nil, err
		}
	}
	var ids []int64
	if idx, ok := t.indexes[col]; ok {
		ids = append(ids, idx[value]...)
	} else {
		for id, row := range t.rows {
			if row[col] == value {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		out = append(out, copyRow(t.rows[id]))
	}
	return out, nil
}

// SelectOne returns the single row where col == value, or ErrNoRow.
func (db *DB) SelectOne(tableName, col string, value any) (Row, error) {
	rows, err := db.Select(tableName, col, value)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: %s where %s = %v", ErrNoRow, tableName, col, value)
	}
	return rows[0], nil
}

// Scan returns every row matching the predicate, sorted by id — a full
// table scan, the query plan MySQL falls back to for LIKE '%word%' filters.
func (db *DB) Scan(tableName string, pred func(Row) bool) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Row
	for _, id := range ids {
		if pred(t.rows[id]) {
			out = append(out, copyRow(t.rows[id]))
		}
	}
	return out, nil
}

// ScanLast returns the n highest-id rows, newest first — the home page's
// "recent uploads" query. Unlike Scan it never copies more than n rows:
// candidate ids are selected with one pass over the key set (a bounded
// insertion into an n-slot window), so rebuild cost is O(rows) id
// comparisons plus O(n) row copies instead of a full-table materialisation.
func (db *DB) ScanLast(tableName string, n int) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	// top holds the n largest ids seen so far, descending.
	top := make([]int64, 0, n)
	for id := range t.rows {
		if len(top) == n && id <= top[n-1] {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return top[i] < id })
		if len(top) < n {
			top = append(top, 0)
		}
		copy(top[i+1:], top[i:])
		top[i] = id
	}
	out := make([]Row, 0, len(top))
	for _, id := range top {
		out = append(out, copyRow(t.rows[id]))
	}
	return out, nil
}

// ScanSubstring is the E4 baseline query: SELECT * FROM t WHERE col LIKE
// '%needle%' (case-insensitive), necessarily a full scan.
func (db *DB) ScanSubstring(tableName, col, needle string) ([]Row, error) {
	lower := strings.ToLower(needle)
	return db.Scan(tableName, func(r Row) bool {
		s, ok := r[col].(string)
		return ok && strings.Contains(strings.ToLower(s), lower)
	})
}

// Count returns the number of rows in a table.
func (db *DB) Count(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return len(t.rows), nil
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
