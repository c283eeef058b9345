// Command benchcloud runs the paper-reproduction experiments (DESIGN.md §4)
// and prints their result tables — the data recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchcloud              # run everything
//	benchcloud -only E2,E7  # run a subset
//	benchcloud -o out.txt   # also write the tables to a file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"videocloud/internal/experiments"
	"videocloud/internal/metrics"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E2,E7); empty runs all")
	out := flag.String("o", "", "also write the tables to this file")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var b strings.Builder
	for _, e := range experiments.Registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Ref)
		tbl, err := run(e.Run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			os.Exit(1)
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	fmt.Print(b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
}

// run converts an experiment's shape-violation panic into an error.
func run(fn func() *metrics.Table) (tbl *metrics.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return fn(), nil
}
