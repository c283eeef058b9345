package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// TestDeclaration checks BENCHMARK.json against the limits of the builder's
// contract that a typo could break.
func TestDeclaration(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(spec.Workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" in "s" with better "lower"`)
	}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
}

// TestSmoke runs every workload once at toy scale, layer pass included, and
// checks that each declared metric is measured where it is declared and that
// no operation failed: an API change that breaks the benchmark fails here.
func TestSmoke(t *testing.T) {
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	const seed, titles = 7, 4
	cat, err := newCatalog(seed, titles) // shared: the first run computes its references
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			// One run per workload. The layer pass also computes the
			// end-to-end values; -short keeps it to the workload that
			// uses every layer.
			o := options{workload: w.Name, seed: seed, seconds: 1.5, titles: titles, clients: 2, setups: 1, outDir: t.TempDir()}
			o.trace = !testing.Short() || w.Name == "publish-mix"
			rep, err := runWorkload(spec, root, o, cat)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v",
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
			}
			e2e, err := emit(spec.EndToEnd, rep.measured)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric must never be 0", name, m.Value)
				}
			}
			want := spec.EndToEnd
			if o.trace {
				want = spec.PerLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%d metrics printed, %d declared", len(rep.Result.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Result.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: printed %v (present=%v), declared unit %q", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "page_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "req_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                metricDecl
		old, new, spread float64
		want             string
	}{
		{lower, 1.00, 1.05, 2, "unchanged"},
		{lower, 1.00, 1.20, 2, "regressed"},
		{lower, 1.00, 0.80, 2, "improved"},
		{higher, 1000, 850, 2, "regressed"},
		{higher, 1000, 1150, 2, "improved"},
		{higher, 1000, 850, 15, "unresolved"},
	} {
		if got := verdict(c.d, c.old, c.new, 1, c.spread); got != c.want {
			t.Errorf("%s %v -> %v (spread %v%%): %s, want %s", c.d.Name, c.old, c.new, c.spread, got, c.want)
		}
	}
}

// TestCompare checks what -compare must refuse or fail besides a metric
// beyond its bound.
func TestCompare(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// set builds a result set in which every metric of every workload is
	// 100, then lets the case change it.
	set := func(change func(*resultSet)) string {
		s := &resultSet{Stamp: stamp{Clients: 2, Titles: 24, Seconds: 12, Seed: 1, GOGC: 100, GOMAXPROCS: 2}, Workloads: map[string]*workloadResult{}}
		for _, w := range spec.Workloads {
			wr := &workloadResult{Correct: true, Attempted: 1000, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				wr.EndToEnd[m.Name] = metricValue{Value: 100, Unit: m.Unit}
			}
			wr.PerLayer["client.best_split_pct"] = metricValue{Value: 1, Unit: "%"}
			s.Workloads[w.Name] = wr
		}
		change(s)
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	first := spec.Workloads[0].Name
	base := set(func(*resultSet) {})
	for _, c := range []struct {
		name   string
		change func(*resultSet)
		fails  bool
	}{
		{"same", func(*resultSet) {}, false},
		{"faster", func(s *resultSet) { s.Workloads[first].EndToEnd["req_per_s"] = metricValue{Value: 200} }, false},
		{"slower", func(s *resultSet) { s.Workloads[first].EndToEnd["req_per_s"] = metricValue{Value: 50} }, true},
		{"incorrect", func(s *resultSet) { s.Workloads[first].Correct = false }, true},
		{"more failed operations", func(s *resultSet) { s.Workloads[first].Failed = 3 }, true},
		{"workload missing", func(s *resultSet) { delete(s.Workloads, first) }, true},
		{"metric missing", func(s *resultSet) { delete(s.Workloads[first].EndToEnd, "setup_s") }, true},
		{"other client count", func(s *resultSet) { s.Stamp.Clients = 4 }, true},
		{"other GOGC", func(s *resultSet) { s.Stamp.GOGC = 25 }, true},
	} {
		if err := compareFiles(spec, base, set(c.change)); (err != nil) != c.fails {
			t.Errorf("%s: compare returned %v, want failure=%v", c.name, err, c.fails)
		}
	}
}
