package trace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// chromeEvent is one entry in Chrome's trace-event format (the JSON array
// flavor loadable in chrome://tracing and Perfetto). Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ExportChrome renders traces as Chrome trace-event JSON: one process per
// trace, one thread per layer, complete ("X") events per span, with
// annotations, errors, and sim-clock stamps in args.
func ExportChrome(traces []*Trace) ([]byte, error) {
	var events []chromeEvent
	for pi, tr := range traces {
		pid := pi + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": fmt.Sprintf("%s trace %016x", tr.Root, tr.TraceID)},
		})
		// Deterministic thread (layer) numbering per trace.
		layerTid := map[string]int{}
		var layers []string
		for _, s := range tr.Spans {
			if _, ok := layerTid[s.Layer]; !ok {
				layerTid[s.Layer] = 0
				layers = append(layers, s.Layer)
			}
		}
		sort.Strings(layers)
		for i, l := range layers {
			layerTid[l] = i + 1
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: map[string]string{"name": l},
			})
		}
		for _, s := range tr.Spans {
			args := map[string]string{
				"trace_id": fmt.Sprintf("%016x", s.TraceID),
				"span_id":  fmt.Sprintf("%x", s.SpanID),
			}
			if s.ParentID != 0 {
				args["parent_id"] = fmt.Sprintf("%x", s.ParentID)
			}
			if s.Error != "" {
				args["error"] = s.Error
			}
			if s.SimDuration > 0 {
				args["sim_start"] = s.SimStart.String()
				args["sim_duration"] = s.SimDuration.String()
			}
			for _, a := range s.Annotations {
				args[a.Key] = a.Value
			}
			events = append(events, chromeEvent{
				Name: s.Name,
				Cat:  s.Layer,
				Ph:   "X",
				Ts:   float64(s.Start.Nanoseconds()) / 1e3,
				Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
				Pid:  pid,
				Tid:  layerTid[s.Layer],
				Args: args,
			})
		}
	}
	return json.MarshalIndent(events, "", " ")
}
