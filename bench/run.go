package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// subWindows is how many equal sub-windows the measured time is cut into
// (0.25 s each at the declared 20 s). A gated rate or median is the mean of
// the best twentieth of its sub-window values (bestMean): the host this runs
// on slows down for seconds to minutes at a time, by up to a third, and the
// median of the sub-windows follows it, while the best four of eighty need
// only one undisturbed second somewhere in the run. A change that makes every
// request slower moves the best sub-windows as much as the rest; one that
// stalls some of them moves the median, the quartiles and the mean, which are
// reported beside the gated values under client.*.
const subWindows = 80

// The sizes of a run are constants of the benchmark, not flags: a result
// measured with other values cannot be compared with the baseline. The smoke
// test sets the fields of options directly.
const (
	catalogTitles = 24
	// setUps is how often the fleet is set up; setup_s is their median,
	// because one set-up alone is at the mercy of page faults in a cold heap.
	setUps = 5
)

type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured time, warm-up excluded
	trace    bool    // layer pass: emit per-layer metrics
	titles   int
	clients  int // closed-loop connections
	setups   int
	outDir   string // reports and traces
}

func defaultOptions() options {
	return options{seed: 1, titles: catalogTitles, clients: min(runtime.NumCPU(), 4), setups: setUps}
}

// warmUp is the time clients run before the first measured sub-window, so
// caches reach the workload's steady state and the heap its working size.
func (o options) warmUp() time.Duration {
	return time.Duration(o.seconds / 5 * float64(time.Second))
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds / subWindows * float64(time.Second))
}

// drive is what one stretch of closed-loop load produced: the merged
// sub-window samples and the process's cost over exactly that stretch.
type drive struct {
	window time.Duration
	wins   []windowRec
	before procSample
	after  procSample

	// Layer pass only: the layers' statistics at both ends of the measured
	// time, and the process's peaks within it.
	countersBefore, countersAfter map[string]float64
	heapPeakMB                    float64
	goroutinesPeak                int
}

type procSample struct {
	mem runtime.MemStats
	cpu time.Duration // this process, user + system
	// Host-wide jiffies from /proc/stat: stolen by the hypervisor, and all.
	steal, cpuAll int64
}

func sampleProc() procSample {
	var p procSample
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line) {
			if n, err := strconv.ParseInt(f, 10, 64); err == nil && i >= 1 {
				p.cpuAll += n
				if i == 8 { // "cpu user nice system idle iowait irq softirq steal"
					p.steal = n
				}
			}
		}
	}
	return p
}

func (d *drive) requests() int64 {
	var n int64
	for i := range d.wins {
		n += d.wins[i].reqs
	}
	return n
}

// watchPeaks samples heap in use and goroutine count until stop is closed.
func (d *drive) watchPeaks(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(samples)
		inUse := float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()) / 1e6
		d.heapPeakMB = max(d.heapPeakMB, inUse)
		d.goroutinesPeak = max(d.goroutinesPeak, runtime.NumGoroutine())
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// runClients drives the workload with o.clients closed-loop clients for
// warm + n*window and returns the n measured sub-windows. With layers set it
// also reads the layers' statistics at both ends of the measured time.
func runClients(s *session, w *workload, cat *catalog, o options, t *tally, warm, window time.Duration, n int, layers bool) *drive {
	start := time.Now().Add(warm)
	end := start.Add(time.Duration(n) * window)
	recs := make([]*recorder, o.clients)
	target := s.f.targetHeader()
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder(start, window, n)
		c := s.newClient(t, recs[i])
		wg.Add(1)
		if w.uploader && i == 0 {
			c.cookie = s.cookie
			go func() {
				defer wg.Done()
				for k := 0; time.Now().Before(end); k++ {
					d, ok := c.publish(cat.pubs[k%len(cat.pubs)], target)
					if !ok {
						time.Sleep(time.Millisecond) // do not spin on a broken site
						continue
					}
					if win := c.rec.at(time.Now()); win != nil {
						win.publishes = append(win.publishes, int64(d))
					}
				}
			}()
			continue
		}
		v := newViewer(c, w, s, cat, o.seed, i)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				began := time.Now()
				if !w.journey(v) {
					time.Sleep(time.Millisecond)
					continue
				}
				now := time.Now()
				if win := c.rec.at(now); win != nil {
					win.journeys = append(win.journeys, int64(now.Sub(began)))
				}
			}
		}()
	}
	d := &drive{window: window, wins: make([]windowRec, n)}
	time.Sleep(time.Until(start))
	stop, stopped := make(chan struct{}), make(chan struct{})
	if layers {
		d.countersBefore = s.f.counters()
		go d.watchPeaks(stop, stopped)
	}
	d.before = sampleProc()
	time.Sleep(time.Until(end))
	d.after = sampleProc()
	if layers {
		d.countersAfter = s.f.counters()
		close(stop)
		<-stopped
	}
	wg.Wait()
	for _, r := range recs {
		for i := range r.wins {
			m, c := &d.wins[i], &r.wins[i]
			for rt := range c.lat {
				m.lat[rt] = append(m.lat[rt], c.lat[rt]...)
			}
			m.journeys = append(m.journeys, c.journeys...)
			m.publishes = append(m.publishes, c.publishes...)
			m.posts = append(m.posts, c.posts...)
			m.reqs += c.reqs
			m.bytes += c.bytes
			m.media += c.media
			m.srcSecs += c.srcSecs
		}
	}
	return d
}

// perWindow applies f to every sub-window.
func perWindow[T any](d *drive, f func(*windowRec) T) []T {
	out := make([]T, len(d.wins))
	for i := range d.wins {
		out[i] = f(&d.wins[i])
	}
	return out
}

// latencies returns, per sub-window, the latencies (ns) of the routes sel
// accepts.
func (d *drive) latencies(sel func(route) bool) [][]int64 {
	out := make([][]int64, len(d.wins))
	for i := range d.wins {
		for rt := route(0); rt < nRoutes; rt++ {
			if sel(rt) {
				out[i] = append(out[i], d.wins[i].lat[rt]...)
			}
		}
	}
	return out
}

// windowMedians returns each sub-window's own median in ms; a sub-window in
// which no sample completed has none and is left out.
func windowMedians(perWin [][]int64) []float64 {
	var vals []float64
	for _, w := range perWin {
		if len(w) > 0 {
			vals = append(vals, median(nsToMs(w)))
		}
	}
	return vals
}

// p50ms is the median of the sub-windows' medians, in ms.
func p50ms(perWin [][]int64) float64 { return median(windowMedians(perWin)) }

// bestP50ms is the gated form: the mean of the lowest twentieth of the
// sub-windows' medians, in ms.
func bestP50ms(perWin [][]int64) float64 { return bestMean(windowMedians(perWin), false) }

// quantileMs is the q-quantile, in ms, of the samples of all sub-windows.
func quantileMs(perWin [][]int64, q float64) float64 {
	var all []int64
	for _, w := range perWin {
		all = append(all, w...)
	}
	return quantile(nsToMs(all), q)
}

// throughput is the gated rate: the mean of the highest twentieth of the
// sub-windows' rates.
func throughput(perWindowCounts []float64, window time.Duration) float64 {
	return bestMean(perWindowCounts, true) / window.Seconds()
}

func count(perWin [][]int64) int {
	n := 0
	for _, w := range perWin {
		n += len(w)
	}
	return n
}

func only(want route) func(route) bool { return func(r route) bool { return r == want } }

// endToEnd computes the metrics a viewer or uploader of the site would see.
func endToEnd(d *drive, w *workload, setupSeconds float64) map[string]float64 {
	journeys := perWindow(d, func(r *windowRec) []int64 { return r.journeys })
	if w.uploader {
		journeys = perWindow(d, func(r *windowRec) []int64 { return r.publishes })
	}
	return map[string]float64{
		"setup_s":         setupSeconds,
		"req_per_s":       throughput(perWindow(d, func(r *windowRec) float64 { return float64(r.reqs) }), d.window),
		"egress_mb_per_s": throughput(perWindow(d, func(r *windowRec) float64 { return float64(r.bytes) / 1e6 }), d.window),
		"media_p50_ms":    bestP50ms(d.latencies(route.isMedia)),
		"journey_p50_ms":  bestP50ms(journeys),
		"allocs_per_req":  float64(d.after.mem.Mallocs-d.before.mem.Mallocs) / float64(max(d.requests(), 1)),
		"rss_peak_mb":     rssPeakMB(),
	}
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// report is everything one run of one workload found; the driver reads only
// the runResult line, the rest goes to bench/out for people and -compare.
type report struct {
	Stamp    stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Result   runResult      `json:"result"`
	Setups   []float64      `json:"setup_seconds"`
	Samples  map[string]int `json:"samples"`
	Problems []string       `json:"problems,omitempty"`

	// measured is every value the run computed, declared or not.
	measured map[string]float64
}

// runWorkload is one complete run on the inputs cat, made from o.seed:
// set-ups, warm-up, measured sub-windows, the layer pass when asked for, and
// the end-state checks.
func runWorkload(spec *benchSpec, repoRoot string, o options, cat *catalog) (*report, error) {
	w := findWorkload(o.workload)
	if w == nil || !spec.workload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if w.uploader {
		// One connection uploads; at least one must be left to view.
		o.clients = max(o.clients, 2)
	}
	rep := &report{Stamp: newStamp(repoRoot, o), Workload: w.name, Trace: o.trace, Samples: map[string]int{}}
	t := &tally{}
	var err error

	// Set up several times and keep the last fleet.
	var s *session
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		var took time.Duration
		if s, took, err = setUp(w.cfg, cat, o.clients, t); err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, took.Seconds())
		if cat.sources != nil {
			if err := cat.setReferences(s.f); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	defer s.close()

	d := runClients(s, w, cat, o, t, o.warmUp(), o.window(), subWindows, o.trace)
	measured := endToEnd(d, w, median(rep.Setups))
	for rt := route(0); rt < nRoutes; rt++ {
		rep.Samples[routeNames[rt]] = count(d.latencies(only(rt)))
	}
	if o.trace {
		statDeltas(d, s, cat, measured)
		clientAndProcess(d, w, measured)
		// setup_s is the median set-up; the first one, into a cold heap, is
		// what a process that boots once pays.
		measured["process.setup_cold_s"] = rep.Setups[0]
		tracedStretch(s, w, cat, o, t, measured["client.req_per_s_median"], measured)
	}

	rep.Problems = s.f.teardownProblems()
	if held := s.f.storedBytes(); held != s.seeded {
		rep.Problems = append(rep.Problems, fmt.Sprintf("hdfs: holds %d bytes after the run, %d after seeding", held, s.seeded))
	}
	decls := spec.EndToEnd
	if o.trace {
		decls = spec.PerLayer
		log, err := probes(s, w, cat, o, d, rep.Samples, measured)
		if err != nil {
			return nil, err
		}
		if err := writeJSON(filepath.Join(o.outDir, "trace-"+o.workload+".json"), map[string]any{"traceEvents": log.chrome()}); err != nil {
			return nil, err
		}
	}
	if msg := t.firstErr.Load(); msg != nil {
		rep.Problems = append(rep.Problems, "first failed operation: "+*msg)
	}
	rep.Result = runResult{
		Correct:   t.failed.Load() == 0 && len(rep.Problems) == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
	}
	rep.measured = measured
	if rep.Result.Metrics, err = emit(decls, measured); err != nil {
		return nil, err
	}
	return rep, nil
}
