package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDecl is one metric declared in BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json, the one place metric and workload names,
// units, directions and bounds are declared. The program measures by name
// and takes everything else from here.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where the driver and run.sh start the program) or its parent (where
// `go test` and `go run .` inside bench/ start it). It returns the repo root
// it found the file in.
func loadSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one emitted metric, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit selects the declared metrics from the measured values. A declared
// metric the run did not measure is an error: the declaration and the
// program have drifted apart.
func emit(decls []metricDecl, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
