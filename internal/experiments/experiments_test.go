package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// wantRows is the row count each registered experiment's table must have;
// -1 leaves it open (E13's layers depend on what the traced requests
// touched). An experiment registered without an entry here fails TestRegistry.
var wantRows = map[string]int{
	"E1":  8,
	"E1b": 3, // stop-and-copy, pre-copy, post-copy
	"E1c": 4,
	"E2":  5,
	"E3":  5,
	"E4":  3,
	"E5":  4,
	"E6":  3,
	"E6b": 2,
	"E6c": 2,
	"E7":  3,
	"E8":  6, // 5 scaling points + locality-off ablation
	"E8b": 3,
	"E9":  11, // 5 journey steps + 6 per-route rows (home via the login redirect, register, verify, login, search, stream)
	"E9b": 9,  // 5 concurrency levels + per-route rows (home, search, watch, stream)
	"E10": 6,
	"E11": 3,
	"E13": -1,
	"E14": 4, // 1/4/8 frontends + flash crowd
	"E15": 4, // 4/16/64 viewers + live phase
	"E16": 9, // 5 windows + job, drain, control, rebalance
	"E17": 5,
}

// goldenTables are the experiments every column of whose table is modelled,
// so the table is the same on every run and host: TestRegistry compares it
// byte for byte with testdata/<id>.golden, and a faster tier-1 cannot come
// from shrinking one of them.
var goldenTables = map[string]bool{"E6b": true, "E8": true, "E8b": true}

// TestRegistry runs every registered experiment by id (`go test -run
// 'TestRegistry/E15'`): the harness panics on a shape violation — the gates
// live there and only there — and the table must have its title, the
// recorded number of rows and, for goldenTables, the recorded bytes.
func TestRegistry(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			want, ok := wantRows[e.ID]
			if !ok {
				t.Fatalf("%s is registered but has no wantRows entry", e.ID)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", e.ID, r)
				}
			}()
			tbl := e.Run()
			if tbl == nil || tbl.Rows() == 0 || tbl.Title == "" {
				t.Fatalf("%s produced no titled rows", e.ID)
			}
			if want >= 0 && tbl.Rows() != want {
				t.Fatalf("%s: %d rows, want %d\n%s", e.ID, tbl.Rows(), want, tbl)
			}
			if goldenTables[e.ID] {
				golden, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if got := tbl.String(); got != string(golden) {
					t.Fatalf("%s: table differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", e.ID, e.ID, got, golden)
				}
			}
		})
	}
}
