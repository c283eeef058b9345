package mapred

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// checkCounts verifies the job output matches the true word counts.
func checkCounts(t *testing.T, res *JobResult, want map[string]int) {
	t.Helper()
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
}

// Transient task crashes (first attempt of every map) must be retried and
// leave the result untouched.
func TestTaskRetrySurvivesTransientFaults(t *testing.T) {
	c, e := rig(t, 4, Config{trackerMaxFailures: 1000}) // faults here are not the trackers' fault
	e.InjectFaults(nil, func(phase, tracker string, taskID, attempt int) error {
		if phase == "map" && attempt == 0 {
			return errors.New("injected crash")
		}
		return nil
	})
	want := corpus(t, c, "/in/a.txt", 2000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, want)
	if res.FailedAttempts != len(res.MapTasks) {
		t.Fatalf("FailedAttempts = %d, map tasks = %d", res.FailedAttempts, len(res.MapTasks))
	}
}

// A task that fails every attempt must abort the job with ErrTaskFailed once
// maxTaskAttempts is spent — not loop forever.
func TestTaskAttemptsExhausted(t *testing.T) {
	c, e := rig(t, 3, Config{maxTaskAttempts: 3, trackerMaxFailures: 1000})
	e.InjectFaults(nil, func(phase, tracker string, taskID, attempt int) error {
		return errors.New("poison split")
	})
	corpus(t, c, "/in/a.txt", 200)
	_, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v, want ErrTaskFailed", err)
	}
}

// A tracker whose attempts keep failing must be blacklisted; the job then
// completes on the remaining trackers.
func TestTrackerBlacklisted(t *testing.T) {
	c, e := rig(t, 4, Config{trackerMaxFailures: 2, maxTaskAttempts: 6})
	e.InjectFaults(nil, func(phase, tracker string, taskID, attempt int) error {
		if tracker == "dn0" {
			return errors.New("flaky node")
		}
		return nil
	})
	want := corpus(t, c, "/in/a.txt", 3000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, "/out"))
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, want)
	if len(res.BlacklistedTrackers) != 1 || res.BlacklistedTrackers[0] != "dn0" {
		t.Fatalf("BlacklistedTrackers = %v", res.BlacklistedTrackers)
	}
	for _, ts := range res.MapTasks {
		if ts.Tracker == "dn0" {
			t.Fatalf("task %d completed on blacklisted tracker", ts.ID)
		}
	}
	for _, ts := range res.ReduceTasks {
		if ts.Tracker == "dn0" {
			t.Fatalf("reduce %d ran on blacklisted tracker", ts.ID)
		}
	}
}

// A tracker that dies mid-job strands its completed map output; those maps
// must be re-run elsewhere and the result stay exact.
func TestDeadTrackerStrandsCompletedMaps(t *testing.T) {
	// Kill dn1 when the hook observes its second map attempt: by then the
	// first attempt has completed on it, so stranded output exists.
	var dn1Dead bool
	dn1Attempts := 0
	c, e := rig(t, 4, Config{})
	e.InjectFaults(func(tr string) bool { return !(tr == "dn1" && dn1Dead) },
		func(phase, tracker string, taskID, attempt int) error {
			// Observe progress only; never inject a failure.
			if phase == "map" && tracker == "dn1" {
				dn1Attempts++
				if dn1Attempts == 2 {
					dn1Dead = true
				}
			}
			return nil
		})
	want := corpus(t, c, "/in/a.txt", 4000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, want)
	if len(res.LostTrackers) != 1 || res.LostTrackers[0] != "dn1" {
		t.Fatalf("LostTrackers = %v", res.LostTrackers)
	}
	for _, ts := range res.MapTasks {
		if ts.Tracker == "dn1" {
			t.Fatal("a surviving map stat points at the dead tracker")
		}
	}
	for _, ts := range res.ReduceTasks {
		if ts.Tracker == "dn1" {
			t.Fatal("a reduce ran on the dead tracker")
		}
	}
}

// Reduce attempts are retried like map attempts.
func TestReduceRetry(t *testing.T) {
	c, e := rig(t, 3, Config{trackerMaxFailures: 1000})
	e.InjectFaults(nil, func(phase, tracker string, taskID, attempt int) error {
		if phase == "reduce" && attempt == 0 {
			return errors.New("reduce crash")
		}
		return nil
	})
	want := corpus(t, c, "/in/a.txt", 1000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, want)
	if res.FailedAttempts != len(res.ReduceTasks) {
		t.Fatalf("FailedAttempts = %d, reduce tasks = %d", res.FailedAttempts, len(res.ReduceTasks))
	}
}

// With every tracker gone the job must fail fast with a typed error.
func TestNoLiveTrackers(t *testing.T) {
	c, e := rig(t, 3, Config{})
	e.InjectFaults(func(string) bool { return false }, nil)
	corpus(t, c, "/in/a.txt", 100)
	_, err := e.Run(wordCountJob([]string{"/in/a.txt"}, ""))
	if !errors.Is(err, ErrNoLiveTrackers) {
		t.Fatalf("err = %v, want ErrNoLiveTrackers", err)
	}
}

// The rerun bookkeeping must be reflected in MapTasksRerun, and the part
// files written after recovery must contain the full result.
func TestStrandedRerunWritesCorrectPartFiles(t *testing.T) {
	var dead bool
	dn2Attempts := 0
	c, e := rig(t, 4, Config{})
	e.InjectFaults(func(tr string) bool { return !(tr == "dn2" && dead) },
		func(phase, tracker string, taskID, attempt int) error {
			if phase == "map" && tracker == "dn2" {
				dn2Attempts++
				if dn2Attempts == 2 {
					dead = true
				}
			}
			return nil
		})
	want := corpus(t, c, "/in/a.txt", 3000)
	res, err := e.Run(wordCountJob([]string{"/in/a.txt"}, "/out"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasksRerun == 0 {
		t.Fatal("expected stranded maps to be re-run")
	}
	var all strings.Builder
	for _, f := range res.OutputFiles {
		data, rerr := c.Client("").ReadFile(f)
		if rerr != nil {
			t.Fatal(rerr)
		}
		all.Write(data)
	}
	for k, n := range want {
		line := k + "\t" + strconv.Itoa(n)
		if !strings.Contains(all.String(), line) {
			t.Fatalf("part files missing %q", line)
		}
	}
}
