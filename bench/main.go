// Command bench is the repository's one benchmark: four named workloads
// against the system as shipped, on a loopback listener, driven by its own
// closed-loop HTTP clients. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	o := defaultOptions()
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line; empty runs all of them")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: titles, picks, offsets, queries and catalog content derive from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run, cut into 48 sub-windows (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: add the layer pass and print the per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare old.json new.json")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare old.json new.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("need seconds > 0")
	}
	o.outDir = filepath.Join(root, "bench", "out")
	o.trace = trace != 0
	if o.workload == "" {
		return runAll(spec, root, o)
	}

	cat, err := newCatalog(o.seed, o.titles)
	if err != nil {
		return err
	}
	rep, err := runWorkload(spec, root, o, cat)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("run-%s-trace%d.json", o.workload, trace)), rep); err != nil {
		return err
	}
	printMetrics(rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return fmt.Errorf("%s: incorrect: %v", o.workload, rep.Problems)
	}
	return nil
}

func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d commit=%s go=%s GOMAXPROCS=%d nproc=%d clients=%d\n", rep.Workload, rep.Stamp.Seed,
		rep.Stamp.Commit, rep.Stamp.GoVersion, rep.Stamp.GOMAXPROCS, rep.Stamp.NProc, rep.Stamp.Clients)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Printf("  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
