// Package mapred is the Hadoop MapReduce stand-in of the paper's §III-B and
// Figure 12: a JobTracker decomposes a job over HDFS blocks into map tasks,
// TaskTrackers (co-located with DataNodes) execute them with data-locality
// preference — "each node reads the data stored in itself and has it
// processed to avoid massive transmission through the Internet" — and reduce
// tasks merge the shuffled intermediate output back into HDFS.
//
// Execution is hybrid (DESIGN.md §5.1): map and reduce functions really run
// over the real bytes in HDFS, so results are genuine; task *timing* comes
// from a calibrated cost model scheduled onto tracker slots with a
// deterministic list scheduler, so speedup curves are meaningful even on a
// single-core development machine. JobResult reports both the simulated
// makespan and the real wall time.
package mapred

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"

	"videocloud/internal/hdfs"
	"videocloud/internal/trace"
)

// KV is an intermediate key/value pair.
type KV struct {
	Key   string
	Value string
}

// MapFunc processes one input split. path identifies the input file, data is
// the split's bytes; emit produces intermediate pairs.
type MapFunc func(path string, data []byte, emit func(k, v string)) error

// ReduceFunc folds all values of one key; emit produces final pairs.
type ReduceFunc func(key string, values []string, emit func(k, v string)) error

// Job describes a MapReduce computation over HDFS files.
type Job struct {
	Name string
	// InputPaths are HDFS files; each block becomes one map split.
	InputPaths []string
	// OutputPath is an HDFS directory that receives part-r-NNNNN files.
	// Empty means the output stays in memory only (JobResult.Output).
	OutputPath string
	Map        MapFunc
	Reduce     ReduceFunc
	// Combine optionally pre-folds map output per task (a mini-reduce),
	// shrinking shuffle volume.
	Combine ReduceFunc
	// NumReducers defaults to the number of trackers.
	NumReducers int
}

// Config tunes the engine.
type Config struct {
	// SlotsPerTracker is the number of concurrent map/reduce slots per
	// node (Hadoop default 2).
	SlotsPerTracker int
	// MapThroughput is modelled map processing speed, bytes/second/slot.
	MapThroughput float64
	// ReduceThroughput is modelled reduce speed, bytes/second/slot.
	ReduceThroughput float64
	// NetBandwidth models cross-node reads (non-local splits) and
	// shuffle transfer, bytes/second.
	NetBandwidth float64
	// TaskOverhead is fixed per-task startup cost (JVM spawn in Hadoop).
	TaskOverhead time.Duration
	// DisableLocality makes the scheduler ignore block placement —
	// the ablation arm of experiment E8.
	DisableLocality bool
	// TrackerSpeeds gives per-tracker compute factors for heterogeneous
	// clusters (absent trackers default to 1.0). A 0.25 entry models the
	// degraded node that motivates speculative execution.
	TrackerSpeeds map[string]float64
	// SpeculativeExecution launches backup attempts of straggling map
	// tasks on idle faster slots, Hadoop-style; the earliest attempt
	// wins and the other is killed.
	SpeculativeExecution bool

	// --- fault tolerance (Hadoop's JobTracker recovery model) ---

	// MaxTaskAttempts caps attempts per task before the whole job fails
	// (Hadoop's mapred.map.max.attempts, default 4).
	MaxTaskAttempts int
	// TrackerMaxFailures blacklists a tracker once this many of its task
	// attempts fail; a blacklisted tracker gets no new tasks but its
	// completed map output stays fetchable (default 3).
	TrackerMaxFailures int
	// TrackerAlive, when set, is polled at every scheduling decision; a
	// tracker reported dead loses its slots AND its completed map output,
	// so finished maps stranded on it are re-run (in Hadoop, intermediate
	// output lives on the tracker's local disk and dies with it).
	TrackerAlive func(tracker string) bool
	// TaskFaultHook, when set, runs before each task attempt executes;
	// a non-nil return fails that attempt. phase is "map" or "reduce".
	// This is the chaos-injection point for task crashes.
	TaskFaultHook func(phase, tracker string, taskID, attempt int) error
}

func (c Config) withDefaults() Config {
	if c.SlotsPerTracker == 0 {
		c.SlotsPerTracker = 2
	}
	if c.MapThroughput == 0 {
		c.MapThroughput = 60e6
	}
	if c.ReduceThroughput == 0 {
		c.ReduceThroughput = 80e6
	}
	if c.NetBandwidth == 0 {
		c.NetBandwidth = 100e6
	}
	if c.TaskOverhead == 0 {
		c.TaskOverhead = 1 * time.Second
	}
	if c.MaxTaskAttempts == 0 {
		c.MaxTaskAttempts = 4
	}
	if c.TrackerMaxFailures == 0 {
		c.TrackerMaxFailures = 3
	}
	return c
}

// TaskStat records one executed task for reporting.
type TaskStat struct {
	ID      int
	Tracker string
	Local   bool
	Bytes   int64
	Start   time.Duration
	End     time.Duration
}

// JobResult reports a completed job.
type JobResult struct {
	Job         string
	MapTasks    []TaskStat
	ReduceTasks []TaskStat
	LocalMaps   int
	// ShuffleBytes is the intermediate volume moved between map and
	// reduce (post-combine).
	ShuffleBytes int64
	// SpeculativeTasks counts backup attempts launched (and their wins).
	SpeculativeTasks int
	SpeculativeWins  int
	// FailedAttempts counts task attempts that failed (injected faults).
	FailedAttempts int
	// MapTasksRerun counts completed maps re-executed because their
	// tracker died before the reduce barrier (stranded output).
	MapTasksRerun int
	// LostTrackers lists trackers detected dead during the job;
	// BlacklistedTrackers those excluded for repeated task failures.
	LostTrackers        []string
	BlacklistedTrackers []string
	// Duration is the modelled makespan; WallTime the real elapsed time.
	Duration time.Duration
	WallTime time.Duration
	// Output holds the final pairs sorted by key (also written to
	// OutputPath part files when set).
	Output []KV
	// OutputFiles lists the written part files.
	OutputFiles []string
}

// Engine runs jobs on a set of task trackers over an HDFS cluster.
type Engine struct {
	cluster  *hdfs.Cluster
	trackers []string
	cfg      Config
}

// Errors returned by the engine.
var (
	ErrNoTrackers = errors.New("mapred: no task trackers")
	ErrNoInput    = errors.New("mapred: no input splits")
	// ErrTaskFailed wraps a job failure caused by a task exhausting
	// MaxTaskAttempts.
	ErrTaskFailed = errors.New("mapred: task exceeded max attempts")
	// ErrNoLiveTrackers means every tracker died or was blacklisted
	// before the job could finish.
	ErrNoLiveTrackers = errors.New("mapred: no live task trackers")
)

// NewEngine creates an engine whose trackers are named nodes (normally the
// HDFS datanode names, giving co-located compute and storage as in Hadoop).
func NewEngine(cluster *hdfs.Cluster, trackers []string, cfg Config) (*Engine, error) {
	if len(trackers) == 0 {
		return nil, ErrNoTrackers
	}
	return &Engine{cluster: cluster, trackers: append([]string(nil), trackers...), cfg: cfg.withDefaults()}, nil
}

// split is one map input: a block of an input file.
type split struct {
	path   string
	block  hdfs.BlockInfo
	offset int64 // offset of this block within the file
}

// slot is one execution slot in the list scheduler.
type slot struct {
	tracker string
	free    time.Duration
	speed   float64
}

// Run executes the job to completion.
func (e *Engine) Run(job Job) (*JobResult, error) {
	return e.RunCtx(context.Background(), job)
}

// RunCtx is Run linked to the trace span in ctx: the job records a
// mapred.job span with one mapred.map / mapred.reduce child per task
// attempt. Task spans carry the modelled schedule in the sim clock domain
// (SetSimStart/EndAtSim) alongside their real wall time, and failed attempts
// carry the injected error plus a retry annotation.
func (e *Engine) RunCtx(ctx context.Context, job Job) (*JobResult, error) {
	jsp := trace.FromContext(ctx).StartChild("mapred.job")
	jsp.Annotate("job", job.Name)
	jsp.SetSimStart(0)
	res, err := e.run(job, jsp)
	if err != nil {
		jsp.SetError(err)
		jsp.End()
		return res, err
	}
	jsp.AnnotateInt("map_tasks", int64(len(res.MapTasks)))
	jsp.AnnotateInt("reduce_tasks", int64(len(res.ReduceTasks)))
	if res.FailedAttempts > 0 {
		jsp.AnnotateInt("failed_attempts", int64(res.FailedAttempts))
	}
	jsp.EndAtSim(res.Duration)
	return res, nil
}

func (e *Engine) run(job Job, jsp *trace.Span) (*JobResult, error) {
	wallStart := time.Now()
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapred: job %q missing map or reduce function", job.Name)
	}
	splits, err := e.computeSplits(job.InputPaths)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, ErrNoInput
	}
	nReduce := job.NumReducers
	if nReduce <= 0 {
		nReduce = len(e.trackers)
	}

	res := &JobResult{Job: job.Name}

	// ---- map phase ----
	slots := e.newSlots()
	partitions := make([]map[string][]string, nReduce)
	for i := range partitions {
		partitions[i] = make(map[string][]string)
	}
	remaining := make([]*split, len(splits))
	for i := range splits {
		remaining[i] = &splits[i]
	}
	var taskSplits []*split               // parallel to res.MapTasks, for speculation
	var taskOutputs []map[string][]string // parallel to res.MapTasks; merged at the barrier
	taskID := 0

	// Fault-tolerance state. dead trackers lost their slots and their map
	// output; blacklisted ones only stop receiving new work.
	attempts := make(map[*split]int)
	failures := make(map[string]int)
	dead := make(map[string]bool)
	blacklisted := make(map[string]bool)
	schedulable := func(tr string) bool { return !dead[tr] && !blacklisted[tr] }
	recordFailure := func(tr string) {
		res.FailedAttempts++
		failures[tr]++
		if failures[tr] >= e.cfg.TrackerMaxFailures && !blacklisted[tr] {
			blacklisted[tr] = true
			res.BlacklistedTrackers = append(res.BlacklistedTrackers, tr)
		}
	}
	// strandSweep detects newly-dead trackers and re-queues every completed
	// map that ran on one: its intermediate output died with the node.
	strandSweep := func() {
		if e.cfg.TrackerAlive == nil {
			return
		}
		for _, tr := range e.trackers {
			if dead[tr] || e.cfg.TrackerAlive(tr) {
				continue
			}
			dead[tr] = true
			res.LostTrackers = append(res.LostTrackers, tr)
			jsp.Annotate("lost_tracker", tr)
			kept := res.MapTasks[:0]
			keptSplits := taskSplits[:0]
			keptOut := taskOutputs[:0]
			for i, ts := range res.MapTasks {
				if ts.Tracker == tr {
					remaining = append(remaining, taskSplits[i])
					res.MapTasksRerun++
					continue
				}
				kept = append(kept, ts)
				keptSplits = append(keptSplits, taskSplits[i])
				keptOut = append(keptOut, taskOutputs[i])
			}
			res.MapTasks, taskSplits, taskOutputs = kept, keptSplits, keptOut
		}
	}

	for {
		strandSweep()
		if len(remaining) == 0 {
			break
		}
		live := liveSlots(slots, schedulable)
		if len(live) == 0 {
			return nil, fmt.Errorf("mapred: job %q: %w", job.Name, ErrNoLiveTrackers)
		}
		s := earliestSlot(live)
		idx := e.pickSplit(remaining, s.tracker)
		sp := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)

		local := contains(sp.block.Locations, s.tracker)
		data, rerr := e.readSplit(sp)
		if rerr != nil {
			return nil, fmt.Errorf("mapred: read split of %q: %w", sp.path, rerr)
		}
		cost := e.mapCost(int64(len(data)), local, s.speed)
		id := taskID
		taskID++
		attempt := attempts[sp]
		attempts[sp] = attempt + 1
		asp := jsp.StartChild("mapred.map")
		if asp != nil {
			asp.Annotate("tracker", s.tracker)
			asp.AnnotateInt("task", int64(id))
			asp.AnnotateInt("attempt", int64(attempt))
			asp.SetSimStart(s.free)
		}
		if hook := e.cfg.TaskFaultHook; hook != nil {
			if herr := hook("map", s.tracker, id, attempt); herr != nil {
				s.free += cost // the failed attempt held its slot
				recordFailure(s.tracker)
				asp.SetError(herr)
				if attempts[sp] >= e.cfg.MaxTaskAttempts {
					asp.EndAtSim(s.free)
					return nil, fmt.Errorf("mapred: map task %d of %q failed %d attempts (%v): %w",
						id, sp.path, attempts[sp], herr, ErrTaskFailed)
				}
				asp.Annotate("retry", "requeued")
				asp.EndAtSim(s.free)
				remaining = append(remaining, sp)
				continue
			}
		}
		// Execute the user map function for real.
		out := make(map[string][]string)
		emit := func(k, v string) { out[k] = append(out[k], v) }
		if merr := job.Map(sp.path, data, emit); merr != nil {
			asp.SetError(merr)
			asp.End()
			return nil, fmt.Errorf("mapred: map task %d: %w", id, merr)
		}
		if job.Combine != nil {
			combined, cerr := combineOutput(out, job.Combine)
			if cerr != nil {
				asp.SetError(cerr)
				asp.End()
				return nil, fmt.Errorf("mapred: combine task %d: %w", id, cerr)
			}
			out = combined
		}

		// Model the task's time: compute scales with the node's speed,
		// the network does not.
		start := s.free
		s.free += cost
		if local {
			asp.Annotate("local", "true")
		}
		asp.EndAtSim(s.free)
		res.MapTasks = append(res.MapTasks, TaskStat{
			ID: id, Tracker: s.tracker, Local: local,
			Bytes: int64(len(data)), Start: start, End: s.free,
		})
		taskSplits = append(taskSplits, sp)
		taskOutputs = append(taskOutputs, out)
	}
	var mapEnd time.Duration
	for _, ts := range res.MapTasks {
		if ts.End > mapEnd {
			mapEnd = ts.End
		}
		if ts.Local {
			res.LocalMaps++
		}
	}
	if e.cfg.SpeculativeExecution {
		mapEnd = e.speculate(res, taskSplits, liveSlots(slots, schedulable), mapEnd)
	}

	// Merge map output into reduce partitions only at the barrier, once
	// every producing tracker is known to have survived the map phase.
	for _, out := range taskOutputs {
		for k, vs := range out {
			p := int(keyHash(k) % uint32(len(partitions)))
			partitions[p][k] = append(partitions[p][k], vs...)
		}
	}

	// ---- shuffle + reduce phase (barrier at mapEnd, as in Hadoop) ----
	slots = e.newSlots()
	for _, s := range slots {
		s.free = mapEnd
	}
	var jobEnd time.Duration = mapEnd
	for p := 0; p < nReduce; p++ {
		if len(partitions[p]) == 0 {
			continue
		}
		inBytes := partitionBytes(partitions[p])

		// Pick a live slot; retry the attempt on injected faults. A
		// retried reduce refetches its shuffle input, so ShuffleBytes
		// counts every attempt.
		var s *slot
		var rsp *trace.Span
		for attempt := 0; ; attempt++ {
			if e.cfg.TrackerAlive != nil {
				for _, tr := range e.trackers {
					if !dead[tr] && !e.cfg.TrackerAlive(tr) {
						dead[tr] = true
						res.LostTrackers = append(res.LostTrackers, tr)
						jsp.Annotate("lost_tracker", tr)
					}
				}
			}
			live := liveSlots(slots, schedulable)
			if len(live) == 0 {
				return nil, fmt.Errorf("mapred: job %q: %w", job.Name, ErrNoLiveTrackers)
			}
			s = earliestSlot(live)
			res.ShuffleBytes += inBytes
			rsp = jsp.StartChild("mapred.reduce")
			if rsp != nil {
				rsp.Annotate("tracker", s.tracker)
				rsp.AnnotateInt("partition", int64(p))
				rsp.AnnotateInt("attempt", int64(attempt))
				rsp.SetSimStart(s.free)
			}
			if hook := e.cfg.TaskFaultHook; hook != nil {
				if herr := hook("reduce", s.tracker, p, attempt); herr != nil {
					s.free += scaleBySpeed(e.cfg.TaskOverhead+bytesTime(inBytes, e.cfg.ReduceThroughput), s.speed) +
						bytesTime(inBytes, e.cfg.NetBandwidth)
					recordFailure(s.tracker)
					rsp.SetError(herr)
					if attempt+1 >= e.cfg.MaxTaskAttempts {
						rsp.EndAtSim(s.free)
						return nil, fmt.Errorf("mapred: reduce task %d failed %d attempts (%v): %w",
							p, attempt+1, herr, ErrTaskFailed)
					}
					rsp.Annotate("retry", "requeued")
					rsp.EndAtSim(s.free)
					continue
				}
			}
			break
		}

		keys := make([]string, 0, len(partitions[p]))
		for k := range partitions[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var outPairs []KV
		emit := func(k, v string) { outPairs = append(outPairs, KV{k, v}) }
		for _, k := range keys {
			if rerr := job.Reduce(k, partitions[p][k], emit); rerr != nil {
				rsp.SetError(rerr)
				rsp.End()
				return nil, fmt.Errorf("mapred: reduce partition %d key %q: %w", p, k, rerr)
			}
		}
		outBytes := pairsBytes(outPairs)

		cost := scaleBySpeed(e.cfg.TaskOverhead+bytesTime(inBytes, e.cfg.ReduceThroughput), s.speed) +
			bytesTime(inBytes, e.cfg.NetBandwidth) + // shuffle fetch
			bytesTime(outBytes, e.cfg.NetBandwidth) // HDFS write
		start := s.free
		s.free += cost
		rsp.EndAtSim(s.free)
		if s.free > jobEnd {
			jobEnd = s.free
		}
		res.ReduceTasks = append(res.ReduceTasks, TaskStat{
			ID: p, Tracker: s.tracker, Bytes: inBytes, Start: start, End: s.free,
		})
		res.Output = append(res.Output, outPairs...)

		if job.OutputPath != "" {
			name := fmt.Sprintf("%s/part-r-%05d", strings.TrimSuffix(job.OutputPath, "/"), p)
			var b strings.Builder
			for _, kv := range outPairs {
				fmt.Fprintf(&b, "%s\t%s\n", kv.Key, kv.Value)
			}
			cl := e.cluster.Client(s.tracker)
			if werr := cl.WriteFile(name, []byte(b.String()), 2); werr != nil {
				return nil, fmt.Errorf("mapred: write %q: %w", name, werr)
			}
			res.OutputFiles = append(res.OutputFiles, name)
		}
	}
	sort.Slice(res.Output, func(i, j int) bool {
		if res.Output[i].Key != res.Output[j].Key {
			return res.Output[i].Key < res.Output[j].Key
		}
		return res.Output[i].Value < res.Output[j].Value
	})
	res.Duration = jobEnd
	res.WallTime = time.Since(wallStart)
	return res, nil
}

func (e *Engine) newSlots() []*slot {
	slots := make([]*slot, 0, len(e.trackers)*e.cfg.SlotsPerTracker)
	for _, tr := range e.trackers {
		speed := 1.0
		if s, ok := e.cfg.TrackerSpeeds[tr]; ok && s > 0 {
			speed = s
		}
		for i := 0; i < e.cfg.SlotsPerTracker; i++ {
			slots = append(slots, &slot{tracker: tr, speed: speed})
		}
	}
	return slots
}

// mapCost models one map attempt's duration on a slot of the given speed.
// Everything the node itself does (task startup, map compute) scales with
// its speed; network transfer does not.
func (e *Engine) mapCost(bytes int64, local bool, speed float64) time.Duration {
	cost := scaleBySpeed(e.cfg.TaskOverhead+bytesTime(bytes, e.cfg.MapThroughput), speed)
	if !local {
		cost += bytesTime(bytes, e.cfg.NetBandwidth)
	}
	return cost
}

func scaleBySpeed(d time.Duration, speed float64) time.Duration {
	if speed <= 0 || speed == 1 {
		return d
	}
	return time.Duration(float64(d) / speed)
}

// speculate launches backup attempts for straggling map tasks, mirroring
// Hadoop's speculative execution: a task whose attempt finishes last, and
// which an idle slot on another tracker could complete earlier, gets a
// backup; the earlier attempt wins and both slots free at the winning time.
// It returns the new map-phase end time.
func (e *Engine) speculate(res *JobResult, taskSplits []*split, slots []*slot, mapEnd time.Duration) time.Duration {
	// Visit tasks latest-finishing first; only a task that is the last
	// attempt on its slot can still be "running" to speculate against.
	order := make([]int, len(res.MapTasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := res.MapTasks[order[a]], res.MapTasks[order[b]]
		if ta.End != tb.End {
			return ta.End > tb.End
		}
		return ta.ID < tb.ID
	})
	// Hadoop speculates only tasks progressing well below their peers;
	// here: attempt duration over 1.5x the mean attempt duration.
	var meanDur time.Duration
	for _, ts := range res.MapTasks {
		meanDur += ts.End - ts.Start
	}
	meanDur /= time.Duration(len(res.MapTasks))
	for _, ti := range order {
		ts := &res.MapTasks[ti]
		if ts.End-ts.Start <= meanDur*3/2 {
			continue // not a straggler by Hadoop's threshold
		}
		var origSlot *slot
		for _, s := range slots {
			if s.tracker == ts.Tracker && s.free == ts.End {
				origSlot = s
				break
			}
		}
		if origSlot == nil {
			continue // an earlier attempt on that slot; already done
		}
		var best *slot
		var bestEnd time.Duration
		for _, s := range slots {
			if s.tracker == ts.Tracker {
				continue // Hadoop never backs up on the same node
			}
			local := contains(taskSplits[ti].block.Locations, s.tracker)
			end := s.free + e.mapCost(ts.Bytes, local, s.speed)
			if best == nil || end < bestEnd ||
				(end == bestEnd && s.tracker < best.tracker) {
				best, bestEnd = s, end
			}
		}
		if best == nil || bestEnd >= ts.End {
			continue
		}
		res.SpeculativeTasks++
		res.SpeculativeWins++
		ts.End = bestEnd
		ts.Tracker = best.tracker
		origSlot.free = bestEnd // original attempt killed
		best.free = bestEnd
	}
	newEnd := time.Duration(0)
	for _, ts := range res.MapTasks {
		if ts.End > newEnd {
			newEnd = ts.End
		}
	}
	if newEnd > mapEnd {
		return mapEnd
	}
	return newEnd
}

// liveSlots filters slots to trackers the job may still schedule on.
func liveSlots(slots []*slot, schedulable func(string) bool) []*slot {
	out := make([]*slot, 0, len(slots))
	for _, s := range slots {
		if schedulable(s.tracker) {
			out = append(out, s)
		}
	}
	return out
}

// earliestSlot returns the slot that frees first (ties by tracker name for
// determinism).
func earliestSlot(slots []*slot) *slot {
	best := slots[0]
	for _, s := range slots[1:] {
		if s.free < best.free || (s.free == best.free && s.tracker < best.tracker) {
			best = s
		}
	}
	return best
}

// pickSplit chooses the next split for a tracker: a block-local one when
// locality is enabled and available, else the first remaining.
func (e *Engine) pickSplit(remaining []*split, tracker string) int {
	if !e.cfg.DisableLocality {
		for i, sp := range remaining {
			if contains(sp.block.Locations, tracker) {
				return i
			}
		}
	}
	return 0
}

func (e *Engine) computeSplits(paths []string) ([]split, error) {
	cl := e.cluster.Client("")
	var out []split
	for _, p := range paths {
		blocks, err := cl.BlockLocations(p)
		if err != nil {
			return nil, err
		}
		var off int64
		for _, b := range blocks {
			out = append(out, split{path: p, block: b, offset: off})
			off += b.Length
		}
	}
	return out, nil
}

// readSplit returns the split's record-aligned bytes, following Hadoop's
// TextInputFormat rule: a record (newline-terminated line) belongs to the
// split where it starts. Splits after the first skip their leading partial
// record; every split extends past its block end to finish its last record.
// This keeps records that straddle block boundaries from being processed
// twice or torn in half.
func (e *Engine) readSplit(sp *split) ([]byte, error) {
	r, err := e.cluster.Client("").Open(sp.path)
	if err != nil {
		return nil, err
	}
	fileSize := r.Size()
	start := sp.offset
	end := sp.offset + sp.block.Length

	if start > 0 {
		// Skip the partial record owned by the previous split.
		pos, found, serr := scanNewline(r, start, fileSize)
		if serr != nil {
			return nil, serr
		}
		if !found || pos >= end {
			// No record starts in this split.
			return nil, nil
		}
		start = pos
	}
	// Extend to finish the record that starts before end.
	if end < fileSize {
		pos, found, serr := scanNewline(r, end, fileSize)
		if serr != nil {
			return nil, serr
		}
		if found {
			end = pos
		} else {
			end = fileSize
		}
	} else {
		end = fileSize
	}
	if start >= end {
		return nil, nil
	}
	buf := make([]byte, end-start)
	n, err := r.ReadAt(buf, start)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// scanNewline returns the position just after the first '\n' at or after
// off, and whether one was found before limit.
func scanNewline(r *hdfs.Reader, off, limit int64) (int64, bool, error) {
	const chunk = 4096
	buf := make([]byte, chunk)
	for pos := off; pos < limit; {
		n, err := r.ReadAt(buf, pos)
		if n == 0 {
			if err == io.EOF {
				return limit, false, nil
			}
			return 0, false, err
		}
		for i := 0; i < n; i++ {
			if buf[i] == '\n' {
				return pos + int64(i) + 1, true, nil
			}
		}
		pos += int64(n)
		if err == io.EOF {
			break
		}
	}
	return limit, false, nil
}

func combineOutput(out map[string][]string, combine ReduceFunc) (map[string][]string, error) {
	combined := make(map[string][]string, len(out))
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit := func(ck, cv string) { combined[ck] = append(combined[ck], cv) }
		if err := combine(k, out[k], emit); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

func keyHash(k string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(k))
	return h.Sum32()
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func bytesTime(n int64, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

func partitionBytes(m map[string][]string) int64 {
	var n int64
	for k, vs := range m {
		for _, v := range vs {
			n += int64(len(k) + len(v))
		}
	}
	return n
}

func pairsBytes(pairs []KV) int64 {
	var n int64
	for _, kv := range pairs {
		n += int64(len(kv.Key) + len(kv.Value))
	}
	return n
}
