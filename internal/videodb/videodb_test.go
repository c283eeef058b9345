package videodb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func usersDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	err := db.CreateTable("users",
		Column{Name: "username", Type: TString, Unique: true},
		Column{Name: "password_hash", Type: TString},
		Column{Name: "email", Type: TString},
		Column{Name: "blocked", Type: TBool, Indexed: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertGet(t *testing.T) {
	db := usersDB(t)
	id, err := db.Insert("users", Row{"username": "alice", "email": "a@x"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.Get("users", id)
	if err != nil {
		t.Fatal(err)
	}
	if row["username"] != "alice" || row["email"] != "a@x" {
		t.Fatalf("row = %v", row)
	}
	// Defaults applied.
	if row["blocked"] != false || row["password_hash"] != "" {
		t.Fatalf("defaults = %v", row)
	}
	// Returned row is a copy.
	row["username"] = "mallory"
	again, _ := db.Get("users", id)
	if again["username"] != "alice" {
		t.Fatal("Get aliases storage")
	}
}

func TestAutoIncrementIDs(t *testing.T) {
	db := usersDB(t)
	a, _ := db.Insert("users", Row{"username": "a"})
	b, _ := db.Insert("users", Row{"username": "b"})
	if b != a+1 {
		t.Fatalf("ids %d, %d", a, b)
	}
	db.Delete("users", b)
	c, _ := db.Insert("users", Row{"username": "c"})
	if c <= b {
		t.Fatalf("id reused after delete: %d", c)
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := usersDB(t)
	db.Insert("users", Row{"username": "alice"})
	if _, err := db.Insert("users", Row{"username": "alice"}); !errors.Is(err, ErrUnique) {
		t.Fatalf("err = %v", err)
	}
	// Unique also enforced on update.
	id, _ := db.Insert("users", Row{"username": "bob"})
	if err := db.Update("users", id, Row{"username": "alice"}); !errors.Is(err, ErrUnique) {
		t.Fatalf("update err = %v", err)
	}
	// Updating to own value is fine.
	if err := db.Update("users", id, Row{"username": "bob"}); err != nil {
		t.Fatal(err)
	}
	// After delete, the name is free again.
	alice, _ := db.SelectOne("users", "username", "alice")
	db.Delete("users", alice["id"].(int64))
	if _, err := db.Insert("users", Row{"username": "alice"}); err != nil {
		t.Fatalf("reuse after delete: %v", err)
	}
}

func TestTypeChecking(t *testing.T) {
	db := usersDB(t)
	if _, err := db.Insert("users", Row{"username": 42}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Insert("users", Row{"nonexistent": "x"}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v", err)
	}
	id, _ := db.Insert("users", Row{"username": "ok"})
	if err := db.Update("users", id, Row{"blocked": "yes"}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("update err = %v", err)
	}
}

func TestSelectByIndex(t *testing.T) {
	db := usersDB(t)
	for i := 0; i < 10; i++ {
		db.Insert("users", Row{"username": fmt.Sprintf("u%d", i), "blocked": i%2 == 0})
	}
	blocked, err := db.Select("users", "blocked", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 5 {
		t.Fatalf("%d blocked", len(blocked))
	}
	// Sorted by id.
	for i := 1; i < len(blocked); i++ {
		if blocked[i]["id"].(int64) <= blocked[i-1]["id"].(int64) {
			t.Fatal("not sorted by id")
		}
	}
	// Select on unindexed column falls back to scan.
	byEmail, err := db.Select("users", "email", "")
	if err != nil || len(byEmail) != 10 {
		t.Fatalf("scan select: %v, %d rows", err, len(byEmail))
	}
}

func TestSelectOne(t *testing.T) {
	db := usersDB(t)
	db.Insert("users", Row{"username": "alice"})
	row, err := db.SelectOne("users", "username", "alice")
	if err != nil || row["username"] != "alice" {
		t.Fatalf("%v %v", err, row)
	}
	if _, err := db.SelectOne("users", "username", "ghost"); !errors.Is(err, ErrNoRow) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := usersDB(t)
	id, _ := db.Insert("users", Row{"username": "alice", "blocked": false})
	db.Update("users", id, Row{"blocked": true})
	rows, _ := db.Select("users", "blocked", true)
	if len(rows) != 1 {
		t.Fatalf("index not updated: %v", rows)
	}
	rows, _ = db.Select("users", "blocked", false)
	if len(rows) != 0 {
		t.Fatalf("stale index entry: %v", rows)
	}
}

func TestAdd(t *testing.T) {
	db := New()
	if err := db.CreateTable("videos",
		Column{Name: "title", Type: TString},
		Column{Name: "views", Type: TInt},
		Column{Name: "bucket", Type: TInt, Indexed: true},
		Column{Name: "serial", Type: TInt, Unique: true},
	); err != nil {
		t.Fatal(err)
	}
	id, _ := db.Insert("videos", Row{"title": "a", "serial": int64(1)})
	if n, err := db.Add("videos", id, "views", 2); err != nil || n != 2 {
		t.Fatalf("Add = %d, %v, want 2", n, err)
	}
	if n, err := db.Add("videos", id, "views", -1); err != nil || n != 1 {
		t.Fatalf("Add = %d, %v, want 1", n, err)
	}
	if row, _ := db.Get("videos", id); row["views"] != int64(1) {
		t.Fatalf("stored views = %v", row["views"])
	}
	// An indexed column moves between its index buckets.
	if _, err := db.Add("videos", id, "bucket", 7); err != nil {
		t.Fatal(err)
	}
	if rows, _ := db.Select("videos", "bucket", int64(7)); len(rows) != 1 {
		t.Fatalf("index not updated: %v", rows)
	}
	if rows, _ := db.Select("videos", "bucket", int64(0)); len(rows) != 0 {
		t.Fatalf("stale index entry: %v", rows)
	}
	if _, err := db.Add("videos", id, "title", 1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("string column: %v", err)
	}
	if _, err := db.Add("videos", id, "nope", 1); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := db.Add("videos", id+1, "views", 1); !errors.Is(err, ErrNoRow) {
		t.Fatalf("missing row: %v", err)
	}
	if _, err := db.Add("ghosts", id, "views", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := db.Add("videos", id, "serial", 1); err == nil {
		t.Fatal("Add on a unique column accepted")
	}
	// A drifted row holding the wrong type is refused, not overwritten.
	raw, _ := db.RawPut("videos", Row{"views": "many"})
	if _, err := db.Add("videos", raw, "views", 1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("malformed stored value: %v", err)
	}

	// Concurrent increments all count.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := db.Add("videos", id, "views", 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if row, _ := db.Get("videos", id); row["views"] != int64(2001) {
		t.Fatalf("views after 2000 concurrent Adds = %v, want 2001", row["views"])
	}
}

func TestDeleteAndErrors(t *testing.T) {
	db := usersDB(t)
	id, _ := db.Insert("users", Row{"username": "alice"})
	if err := db.Delete("users", id); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("users", id); !errors.Is(err, ErrNoRow) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := db.Get("users", id); !errors.Is(err, ErrNoRow) {
		t.Fatalf("get deleted: %v", err)
	}
	if _, err := db.Get("ghosts", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("ghost table: %v", err)
	}
	if err := db.CreateTable("users"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup table: %v", err)
	}
	if err := db.CreateTable("bad", Column{Name: "id", Type: TInt}); err == nil {
		t.Fatal("reserved column accepted")
	}
	if err := db.CreateTable("bad2", Column{Name: "x", Type: TInt}, Column{Name: "x", Type: TInt}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestScanSubstring(t *testing.T) {
	db := New()
	db.CreateTable("videos",
		Column{Name: "title", Type: TString},
		Column{Name: "uploader", Type: TString, Indexed: true},
	)
	titles := []string{"Nobody MV", "Cloud lecture", "My holiday", "NOBODY dance cover", "cooking"}
	for _, title := range titles {
		db.Insert("videos", Row{"title": title, "uploader": "u"})
	}
	rows, err := db.ScanSubstring("videos", "title", "nobody")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("LIKE scan found %d rows", len(rows))
	}
	rows, _ = db.ScanSubstring("videos", "title", "zzz")
	if len(rows) != 0 {
		t.Fatal("false positives")
	}
}

func TestCountAndTables(t *testing.T) {
	db := usersDB(t)
	db.CreateTable("videos", Column{Name: "title", Type: TString})
	db.Insert("users", Row{"username": "a"})
	db.Insert("users", Row{"username": "b"})
	n, err := db.Count("users")
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	tabs := db.Tables()
	if len(tabs) != 2 || tabs[0] != "users" || tabs[1] != "videos" {
		t.Fatalf("Tables = %v", tabs)
	}
}

// Property: after any sequence of inserts/updates/deletes, Select via index
// equals Scan with the equivalent predicate.
func TestPropertyIndexMatchesScan(t *testing.T) {
	f := func(ops []uint8) bool {
		db := New()
		db.CreateTable("t",
			Column{Name: "k", Type: TInt, Indexed: true},
			Column{Name: "v", Type: TString},
		)
		var ids []int64
		for i, op := range ops {
			switch op % 4 {
			case 0, 1:
				id, err := db.Insert("t", Row{"k": int64(op % 5), "v": fmt.Sprint(i)})
				if err != nil {
					return false
				}
				ids = append(ids, id)
			case 2:
				if len(ids) > 0 {
					db.Update("t", ids[int(op)%len(ids)], Row{"k": int64(op % 7)})
				}
			case 3:
				if len(ids) > 0 {
					idx := int(op) % len(ids)
					db.Delete("t", ids[idx])
					ids = append(ids[:idx], ids[idx+1:]...)
				}
			}
		}
		for k := int64(0); k < 7; k++ {
			byIndex, err := db.Select("t", "k", k)
			if err != nil {
				return false
			}
			byScan, err := db.Scan("t", func(r Row) bool { return r["k"] == k })
			if err != nil {
				return false
			}
			if len(byIndex) != len(byScan) {
				return false
			}
			for i := range byIndex {
				if byIndex[i]["id"] != byScan[i]["id"] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRawPutBypassesValidation covers the fault-injection hook: a drifted
// row is stored verbatim, visible to readers, and cleanly deletable.
func TestRawPutBypassesValidation(t *testing.T) {
	db := New()
	if err := db.CreateTable("v",
		Column{Name: "title", Type: TString},
		Column{Name: "owner", Type: TInt, Indexed: true},
	); err != nil {
		t.Fatal(err)
	}
	id, err := db.RawPut("v", Row{"title": 42, "owner": "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.Get("v", id)
	if err != nil {
		t.Fatal(err)
	}
	if row["title"] != 42 || row["owner"] != "bogus" {
		t.Fatalf("row altered: %v", row)
	}
	// The drifted value is reachable through its index and removable.
	if rows, _ := db.Scan("v", func(r Row) bool { return true }); len(rows) != 1 {
		t.Fatalf("scan rows = %d", len(rows))
	}
	if err := db.Delete("v", id); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("v"); n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestScanLast(t *testing.T) {
	db := New()
	if err := db.CreateTable("videos", Column{Name: "title", Type: TString}); err != nil {
		t.Fatal(err)
	}
	// Empty table and n <= 0 are clean no-ops.
	if rows, err := db.ScanLast("videos", 10); err != nil || len(rows) != 0 {
		t.Fatalf("empty ScanLast: %v, %v", rows, err)
	}
	if rows, err := db.ScanLast("videos", 0); err != nil || rows != nil {
		t.Fatalf("ScanLast(0): %v, %v", rows, err)
	}
	if _, err := db.ScanLast("nope", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
	for i := 1; i <= 25; i++ {
		if _, err := db.Insert("videos", Row{"title": fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.ScanLast("videos", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("ScanLast(10) = %d rows", len(rows))
	}
	for i, r := range rows {
		if want := int64(25 - i); r["id"] != want {
			t.Fatalf("rows[%d] id = %v, want %d (newest first)", i, r["id"], want)
		}
	}
	// Deleting the newest row keeps the window correct.
	if err := db.Delete("videos", 25); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.ScanLast("videos", 3)
	if len(rows) != 3 || rows[0]["id"] != int64(24) {
		t.Fatalf("after delete: %v", rows)
	}
	// n larger than the table returns everything, newest first.
	rows, _ = db.ScanLast("videos", 100)
	if len(rows) != 24 || rows[23]["id"] != int64(1) {
		t.Fatalf("oversized n: %d rows, tail %v", len(rows), rows[len(rows)-1])
	}
	// Returned rows are copies: mutation must not leak into the store.
	rows[0]["title"] = "mutated"
	orig, _ := db.Get("videos", 24)
	if orig["title"] == "mutated" {
		t.Fatal("ScanLast returned an aliased row")
	}
}
