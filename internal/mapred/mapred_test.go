package mapred

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"videocloud/internal/hdfs"
)

const testBlock = 32 * 1024

// rig builds an HDFS cluster with n co-located trackers.
func rig(t *testing.T, n int, cfg Config) (*hdfs.Cluster, *Engine) {
	t.Helper()
	c := hdfs.NewCluster(n, testBlock)
	trackers := make([]string, n)
	for i := range trackers {
		trackers[i] = fmt.Sprintf("dn%d", i)
	}
	e, err := NewEngine(c, trackers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, e
}

// corpus writes text data spanning several blocks and returns true word
// counts.
func corpus(t *testing.T, c *hdfs.Cluster, path string, repeat int) map[string]int {
	t.Helper()
	words := []string{"cloud", "video", "kvm", "opennebula", "hadoop", "nutch", "stream", "cloud", "video", "cloud"}
	var b strings.Builder
	counts := map[string]int{}
	for i := 0; i < repeat; i++ {
		for _, w := range words {
			b.WriteString(w)
			b.WriteByte(' ')
			counts[w]++
		}
		b.WriteByte('\n')
	}
	if err := c.Client("").WriteFile(path, []byte(b.String()), 2); err != nil {
		t.Fatal(err)
	}
	return counts
}

func wordCountJob(inputs []string, output string) Job {
	return Job{
		Name:       "wordcount",
		InputPaths: inputs,
		OutputPath: output,
		Map: func(path string, data []byte, emit func(k, v string)) error {
			for _, w := range strings.Fields(string(data)) {
				emit(w, "1")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			sum := 0
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				sum += n
			}
			emit(key, strconv.Itoa(sum))
			return nil
		},
	}
}

func TestWordCountCorrectness(t *testing.T) {
	c, e := rig(t, 4, Config{})
	want := corpus(t, c, "/in/corpus.txt", 2000)
	res, err := e.Run(wordCountJob([]string{"/in/corpus.txt"}, "/out"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range res.Output {
		n, _ := strconv.Atoi(kv.Value)
		got[kv.Key] = n
	}
	if len(got) != len(want) {
		t.Fatalf("keys = %d, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], n)
		}
	}
	// Output files landed in HDFS and contain the same data.
	if len(res.OutputFiles) == 0 {
		t.Fatal("no part files written")
	}
	var all strings.Builder
	for _, f := range res.OutputFiles {
		data, err := c.Client("").ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(data)
	}
	for k, n := range want {
		if !strings.Contains(all.String(), fmt.Sprintf("%s\t%d", k, n)) {
			t.Fatalf("part files missing %s=%d", k, n)
		}
	}
}

func TestSplitPerBlock(t *testing.T) {
	c, e := rig(t, 3, Config{})
	corpus(t, c, "/in/a.txt", 3000) // several blocks
	st, _ := c.NameNode().Stat("/in/a.txt")
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapTasks) != st.Blocks {
		t.Fatalf("map tasks = %d, blocks = %d", len(res.MapTasks), st.Blocks)
	}
}

func TestLocalityPreferred(t *testing.T) {
	c, e := rig(t, 4, Config{})
	corpus(t, c, "/in/a.txt", 4000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	// With RF=2 on 4 nodes and locality-aware pulls, most tasks run local.
	frac := float64(res.LocalMaps) / float64(len(res.MapTasks))
	if frac < 0.5 {
		t.Fatalf("local fraction = %.2f (%d/%d)", frac, res.LocalMaps, len(res.MapTasks))
	}
}

func TestLocalityAblationIsSlower(t *testing.T) {
	run := func(disable bool) *JobResult {
		c, e := rig(t, 4, Config{DisableLocality: disable})
		corpus(t, c, "/in/a.txt", 6000)
		res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withLoc := run(false)
	without := run(true)
	if without.LocalMaps > withLoc.LocalMaps {
		t.Fatalf("locality off found more local maps: %d > %d", without.LocalMaps, withLoc.LocalMaps)
	}
	if without.Duration < withLoc.Duration {
		t.Fatalf("locality off faster: %v < %v", without.Duration, withLoc.Duration)
	}
}

func TestScalingWithTrackers(t *testing.T) {
	duration := func(n int) time.Duration {
		c, e := rig(t, n, Config{})
		corpus(t, c, "/in/a.txt", 12000)
		res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	d1, d4 := duration(1), duration(4)
	speedup := float64(d1) / float64(d4)
	if speedup < 1.5 {
		t.Fatalf("4 trackers speedup = %.2fx over 1", speedup)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	sumCombine := func(key string, values []string, emit func(k, v string)) error {
		sum := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			sum += n
		}
		emit(key, strconv.Itoa(sum))
		return nil
	}
	run := func(withCombine bool) *JobResult {
		c, e := rig(t, 3, Config{})
		want := corpus(t, c, "/in/a.txt", 5000)
		job := wordCountJob([]string{"/in/a.txt"}, "")
		if withCombine {
			job.Combine = sumCombine
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		// Correctness preserved either way.
		got := map[string]int{}
		for _, kv := range res.Output {
			n, _ := strconv.Atoi(kv.Value)
			got[kv.Key] = n
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("combine=%v: count[%s] = %d, want %d", withCombine, k, got[k], n)
			}
		}
		return res
	}
	plain := run(false)
	combined := run(true)
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle: %d >= %d", combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

func TestMultipleInputsAndReducers(t *testing.T) {
	c, e := rig(t, 3, Config{})
	w1 := corpus(t, c, "/in/a.txt", 1000)
	w2 := corpus(t, c, "/in/b.txt", 500)
	job := wordCountJob([]string{"/in/a.txt", "/in/b.txt"}, "/out")
	job.NumReducers = 5
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range res.Output {
		n, _ := strconv.Atoi(kv.Value)
		got[kv.Key] = n
	}
	for k := range w1 {
		if got[k] != w1[k]+w2[k] {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], w1[k]+w2[k])
		}
	}
	if len(res.OutputFiles) > 5 {
		t.Fatalf("%d part files for 5 reducers", len(res.OutputFiles))
	}
}

func TestErrors(t *testing.T) {
	c, e := rig(t, 2, Config{})
	if _, err := NewEngine(c, nil, Config{}); !errors.Is(err, ErrNoTrackers) {
		t.Fatalf("no trackers: %v", err)
	}
	if _, err := e.Run(Job{Name: "x", InputPaths: []string{"/missing"}}); err == nil {
		t.Fatal("missing map fn accepted")
	}
	job := wordCountJob([]string{"/missing"}, "")
	if _, err := e.Run(job); !errors.Is(err, hdfs.ErrNotFound) {
		t.Fatalf("missing input: %v", err)
	}
	c.Client("").WriteFile("/empty-dir-file", nil, 1)
	job = wordCountJob([]string{"/empty-dir-file"}, "")
	if _, err := e.Run(job); !errors.Is(err, ErrNoInput) {
		t.Fatalf("empty input: %v", err)
	}
	// Map error propagates.
	c2, e2 := rig(t, 2, Config{})
	corpus(t, c2, "/in/a.txt", 100)
	bad := wordCountJob([]string{"/in/a.txt"}, "")
	bad.Map = func(string, []byte, func(k, v string)) error { return errors.New("boom") }
	if _, err := e2.Run(bad); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("map error: %v", err)
	}
	// Reduce error propagates.
	bad = wordCountJob([]string{"/in/a.txt"}, "")
	bad.Reduce = func(string, []string, func(k, v string)) error { return errors.New("crunch") }
	if _, err := e2.Run(bad); err == nil || !strings.Contains(err.Error(), "crunch") {
		t.Fatalf("reduce error: %v", err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() *JobResult {
		c, e := rig(t, 3, Config{})
		corpus(t, c, "/in/a.txt", 3000)
		res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.LocalMaps != b.LocalMaps {
		t.Fatalf("nondeterministic schedule: %v/%d vs %v/%d",
			a.Duration, a.LocalMaps, b.Duration, b.LocalMaps)
	}
	for i := range a.MapTasks {
		if a.MapTasks[i].Tracker != b.MapTasks[i].Tracker {
			t.Fatal("task assignment differs between runs")
		}
	}
}

// Property: every map task runs exactly once per split and the modelled
// schedule never overlaps two tasks on one slot.
func TestPropertyScheduleSanity(t *testing.T) {
	f := func(repeat uint8, nodes uint8) bool {
		n := int(nodes%4) + 1
		c, _ := hdfs.NewCluster(n, testBlock), 0
		_ = c
		cluster := hdfs.NewCluster(n, testBlock)
		trackers := make([]string, n)
		for i := range trackers {
			trackers[i] = fmt.Sprintf("dn%d", i)
		}
		e, _ := NewEngine(cluster, trackers, Config{})
		var b strings.Builder
		for i := 0; i < int(repeat%40)+1; i++ {
			b.WriteString("alpha beta gamma delta epsilon zeta eta theta ")
		}
		cluster.Client("").WriteFile("/in", []byte(b.String()), 2)
		res, err := e.Run(wordCountJob([]string{"/in"}, ""))
		if err != nil {
			return false
		}
		st, _ := cluster.NameNode().Stat("/in")
		if len(res.MapTasks) != st.Blocks {
			return false
		}
		// Tasks on the same tracker must not overlap more than the
		// slot count allows; verify per-slot non-overlap by checking
		// that at any task start, running tasks on that tracker are
		// < slotsPerTracker... simplified: total busy time per tracker
		// fits within (slots * makespan).
		busy := map[string]time.Duration{}
		for _, ts := range res.MapTasks {
			if ts.End < ts.Start {
				return false
			}
			busy[ts.Tracker] += ts.End - ts.Start
		}
		for _, d := range busy {
			if d > 2*res.Duration+time.Millisecond { // 2 slots/tracker
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
