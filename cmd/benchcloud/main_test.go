package main

import (
	"strings"
	"testing"

	"videocloud/internal/experiments"
	"videocloud/internal/metrics"
)

func TestRunConvertsPanicToError(t *testing.T) {
	_, err := run(func() *metrics.Table { panic("shape violation: boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	tbl, err := run(func() *metrics.Table { return metrics.NewTable("ok", "x") })
	if err != nil || tbl == nil || tbl.Title != "ok" {
		t.Fatalf("happy path: %v %v", tbl, err)
	}
}

func TestRunnerRegistryComplete(t *testing.T) {
	// Every registered experiment has a unique id and a reference note.
	seen := map[string]bool{}
	for _, e := range experiments.Registry {
		if e.ID == "" || e.Run == nil || e.Ref == "" {
			t.Fatalf("incomplete runner %+v", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// -only E13…E17 used to run nothing: the ids the docs name must resolve.
	for _, id := range []string{"E1", "E11", "E13", "E14", "E15", "E16", "E17"} {
		if !seen[id] {
			t.Fatalf("experiment %s is not registered", id)
		}
	}
}
