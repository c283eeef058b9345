package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// stamp says where, when and on what a result was measured. A number
// without it cannot be compared with another.
type stamp struct {
	Commit     string  `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GOGC       int     `json:"gogc"`
	CPU        string  `json:"cpu"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WindowSecs float64 `json:"window_seconds"`
	Titles     int     `json:"titles"`
	Date       string  `json:"date"`
	Topology   string  `json:"topology"`
}

func newStamp(repoRoot string, o options) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GOGC:       gcSetting(),
		CPU:        cpuModel(),
		Clients:    o.clients,
		Seed:       o.seed,
		Seconds:    o.seconds,
		WindowSecs: o.seconds / subWindows,
		Titles:     o.titles,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Topology:   "loopback, server and generator in one process",
	}
	if out, err := exec.Command("git", "-C", repoRoot, "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", repoRoot, "status", "--porcelain").Output()
		s.Dirty = err != nil || len(st) > 0
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gcSetting is the collector's percent setting in force.
func gcSetting() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}
