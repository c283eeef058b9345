// Command benchcloud runs the paper-reproduction experiments (DESIGN.md §4)
// and prints their result tables — the data recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchcloud                          # run everything
//	benchcloud -only E2,E7              # run a subset
//	benchcloud -o out.txt               # also write the tables to a file
//	benchcloud -only E16 -json out.json # also write E16's report struct
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"videocloud/internal/experiments"
	"videocloud/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is main without the process exit: it runs the selected experiments,
// prints their tables to stdout (progress to stderr), and writes the -o and
// -json files.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchcloud", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated experiment ids (e.g. E2,E7); empty runs all")
	out := fs.String("o", "", "also write the tables to this file")
	jsonOut := fs.String("json", "", "write the report struct the table was rendered from to this file (one experiment that keeps one: E16, E17)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	var selected []experiments.Experiment
	for _, e := range experiments.Registry {
		if *only == "" || want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
		}
	}
	for id := range want {
		return fmt.Errorf("benchcloud: no experiment %q", id)
	}
	if *jsonOut != "" && len(selected) != 1 {
		return fmt.Errorf("benchcloud: -json writes one experiment's report; -only selects %d", len(selected))
	}

	var b strings.Builder
	for _, e := range selected {
		fmt.Fprintf(stderr, "running %s (%s)...\n", e.ID, e.Ref)
		tbl, err := runOne(e.Run)
		if err != nil {
			return fmt.Errorf("%s FAILED: %v", e.ID, err)
		}
		if *jsonOut != "" {
			if tbl.Report == nil {
				return fmt.Errorf("benchcloud: %s keeps no JSON report", e.ID)
			}
			data, err := json.MarshalIndent(tbl.Report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	fmt.Fprint(stdout, b.String())
	if *out != "" {
		return os.WriteFile(*out, []byte(b.String()), 0o644)
	}
	return nil
}

// runOne converts an experiment's shape-violation panic into an error.
func runOne(fn func() *metrics.Table) (tbl *metrics.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return fn(), nil
}
