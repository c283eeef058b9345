package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videocloud/internal/experiments"
	"videocloud/internal/metrics"
)

func TestRunConvertsPanicToError(t *testing.T) {
	_, err := runOne(func() *metrics.Table { panic("shape violation: boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	tbl, err := runOne(func() *metrics.Table { return metrics.NewTable("ok", "x") })
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

// TestJSONReportMatchesTable: -json writes the struct the table was rendered
// from, so re-rendering the file's contents reproduces the printed table.
func TestJSONReportMatchesTable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "elastic.json")
	var stdout bytes.Buffer
	if err := run([]string{"-only", "E16", "-json", file}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.ElasticReport
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not unmarshal into ElasticReport: %v", err)
	}
	if len(rep.Windows) == 0 || rep.AcceptedJobs == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if got, want := rep.Table().String()+"\n", stdout.String(); got != want {
		t.Fatalf("table rendered from the JSON differs from the printed one:\n%s\nvs\n%s", got, want)
	}
}

func TestRunRejectsBadSelections(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "E99"},    // unknown id: an error, not a silent no-op
		{"-only", "E5,E99"}, // even beside a known one
		{"-only", "E5", "-json", filepath.Join(t.TempDir(), "x.json")}, // E5 keeps no report
		{"-only", "E5,E6", "-json", "x.json"},                          // -json takes exactly one
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
