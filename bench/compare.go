package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// resultSet is what a run of all workloads writes and what -compare reads:
// for every workload the end-to-end metrics of the untraced run and the
// per-layer metrics of the layer-pass run.
type resultSet struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// runAll runs every workload of BENCHMARK.json, each in two child processes
// on fresh fleets (end-to-end, then layer pass), one after the other, and
// writes one result set.
func runAll(spec *benchSpec, root string, o options) error {
	// A result measured with fewer Ps than CPUs is not comparable with the
	// baseline, which is what this mode writes.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p != n {
		return fmt.Errorf("refusing to write a result set: GOMAXPROCS=%d but nproc=%d", p, n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Stamp: newStamp(root, o), Workloads: map[string]*workloadResult{}}
	ok := true
	for _, w := range spec.Workloads {
		wr := &workloadResult{Correct: true}
		set.Workloads[w.Name] = wr
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", w.Name, "-trace", strconv.Itoa(trace),
				"-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var res runResult
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return fmt.Errorf("%s (trace %d) printed no result: %v", w.Name, trace, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
		ok = ok && wr.Correct
	}
	path := filepath.Join(o.outDir, "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if !ok {
		return fmt.Errorf("at least one workload was incorrect")
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one end-to-end metric of one workload from its old and new
// value (neither 0) and both runs' sub-window spread in percent.
func verdict(d metricDecl, oldV, newV, oldSpread, newSpread float64) string {
	// worse is how much worse the new value is, as a share of the old one.
	worse := (newV - oldV) / oldV
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case oldSpread > 100*d.Bound || newSpread > 100*d.Bound:
		// Two halves of one run's sub-windows give gated values further
		// apart than the bound: a difference of that size cannot be told
		// from noise.
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// load names the stamp fields that change the load or the machine's share of
// it. Result sets that differ in one of them measure different things.
func (s stamp) load() string {
	return fmt.Sprintf("clients=%d titles=%d seconds=%g seed=%d GOGC=%d GOMAXPROCS=%d",
		s.Clients, s.Titles, s.Seconds, s.Seed, s.GOGC, s.GOMAXPROCS)
}

// compareFiles prints one row per workload and end-to-end metric and fails
// when any row regressed or is missing on one side. A workload whose new run
// was incorrect, or failed more operations than the old one, has regressed
// whatever its numbers say.
func compareFiles(spec *benchSpec, oldPath, newPath string) error {
	oldSet, err := readResultSet(oldPath)
	if err != nil {
		return err
	}
	newSet, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s dirty=%v  %s  %s  %s\n", oldPath, oldSet.Stamp.Commit, oldSet.Stamp.Dirty, oldSet.Stamp.GoVersion, oldSet.Stamp.load(), oldSet.Stamp.CPU)
	fmt.Printf("new: %s  commit %s dirty=%v  %s  %s  %s\n", newPath, newSet.Stamp.Commit, newSet.Stamp.Dirty, newSet.Stamp.GoVersion, newSet.Stamp.load(), newSet.Stamp.CPU)
	if o, n := oldSet.Stamp.load(), newSet.Stamp.load(); o != n {
		return fmt.Errorf("refusing to compare: the sets were measured under different loads (%s | %s)", o, n)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\tbase (old)\tbound\tbetter\tverdict")
	regressed, missing := 0, 0
	for _, w := range spec.Workloads {
		o, n := oldSet.Workloads[w.Name], newSet.Workloads[w.Name]
		if o == nil || n == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tmissing on one side\n", w.Name)
			missing++
			continue
		}
		if !n.Correct || n.Failed > o.Failed {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\tcount\t-\t%d\t0%%\tlower\tregressed (new correct=%v)\n",
				w.Name, o.Failed, n.Failed, o.Failed, n.Correct)
			regressed++
		}
		const noise = "client.best_split_pct"
		for _, d := range spec.EndToEnd {
			om, oOK := o.EndToEnd[d.Name]
			nm, nOK := n.EndToEnd[d.Name]
			if !oOK || !nOK || om.Value == 0 || nm.Value == 0 { // no declared metric is ever 0
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t%s\t-\t-\t%.0f%%\t%s\tmissing on one side\n", w.Name, d.Name, d.Unit, 100*d.Bound, d.Better)
				missing++
				continue
			}
			// The gauge is about sub-window throughput: it says nothing
			// about a count or a memory size.
			oldSpread, newSpread := o.PerLayer[noise].Value, n.PerLayer[noise].Value
			if d.Unit == "count" || d.Unit == "MB" {
				oldSpread, newSpread = 0, 0
			}
			v := verdict(d, om.Value, nm.Value, oldSpread, newSpread)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f\t%.4f\t%.0f%%\t%s\t%s\n",
				w.Name, d.Name, om.Value, nm.Value, d.Unit, nm.Value/om.Value, om.Value, 100*d.Bound, d.Better, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 || missing > 0 {
		return fmt.Errorf("%d row(s) regressed beyond their bound, %d missing on one side", regressed, missing)
	}
	return nil
}
