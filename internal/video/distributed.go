package video

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"videocloud/internal/trace"
)

// Farm is the distributed conversion service of Figure 16: "we use FFmpeg to
// distribute videos to different hosts for uploading, transfer files at the
// same time and later integrate with the previous. It takes even less
// execution time than transferring files by FFmpeg on a single node."
//
// Conversion work is real (every byte is rewritten) and really parallel: the
// file is parsed and partitioned once, and per-node worker goroutines drain a
// longest-processing-time-ordered task queue, writing each converted GOP
// directly into a pre-sized output buffer. The *reported* duration still
// comes from a deterministic list schedule of segment tasks over node slots
// plus the scatter/gather network cost, so the speedup curve of experiment
// E2 is hardware-independent; the measured wall clock of the real parallel
// work is reported separately (FarmResult.WallDuration).
type Farm struct {
	// Nodes are the worker names; one conversion slot each (FFmpeg
	// pegs a core per encode).
	Nodes []string
	// NodeSpeed is each node's compute factor (default 1.0).
	NodeSpeed float64
	// NetBandwidth models segment scatter/gather transfers in
	// bytes/second (default 1 GbE).
	NetBandwidth float64
	// SegmentsPerNode controls split granularity: the file is cut into
	// len(Nodes)*SegmentsPerNode segments (default 2 — finer grain evens
	// out the last-segment straggler).
	SegmentsPerNode int
	// FaultHook, when non-nil, runs before each segment task; a non-nil
	// error fails the conversion and cancels in-flight workers. It exists
	// for fault injection in tests and chaos experiments (the same role
	// videodb.RawPut plays for drifted rows).
	FaultHook func(node string, segment int) error
}

// ErrNoNodes is returned by conversions on a farm with an empty node list,
// so callers can distinguish misconfiguration from conversion failure.
var ErrNoNodes = errors.New("video: farm has no conversion nodes")

// WithNodes returns a copy of the farm over a different node set, keeping
// every other parameter. Farm is a value type, so callers that manage a
// dynamic node pool (elastic scaling) snapshot a farm per conversion.
func (f Farm) WithNodes(nodes []string) Farm {
	f.Nodes = append([]string(nil), nodes...)
	return f
}

func (f Farm) nodeSpeed() float64 {
	if f.NodeSpeed <= 0 {
		return 1.0
	}
	return f.NodeSpeed
}

func (f Farm) netBandwidth() float64 {
	if f.NetBandwidth <= 0 {
		return 125e6
	}
	return f.NetBandwidth
}

// SegmentStat records one converted segment.
type SegmentStat struct {
	Node    string
	GOPs    int
	InBytes int64
	Start   time.Duration
	End     time.Duration
}

// FarmResult reports a distributed conversion.
type FarmResult struct {
	Output []byte
	Info   Info
	// Duration is the modelled wall time of the parallel conversion:
	// scatter + max over nodes of compute + gather + merge.
	Duration time.Duration
	// SingleNodeDuration is the modelled time one node would need (the
	// baseline the paper compares against).
	SingleNodeDuration time.Duration
	// WallDuration is the measured wall-clock time of the real parallel
	// conversion work. For ConvertMulti it is the wall clock of the whole
	// batch (all renditions share one worker pool).
	WallDuration time.Duration
	Segments     []SegmentStat
}

// Release gives the result's Output back to the farm, for a later conversion
// to overwrite instead of zeroing a fresh buffer, and sets Output to nil.
// Call it only once nothing reads Output or a view of it any more (the site
// releases a result once its objects are stored: HDFS keeps none of the
// bytes it is given). A result never released is left to the collector.
func (r *FarmResult) Release() {
	if r.Output != nil {
		farmOutputs.Put(r.Output)
		r.Output = nil
	}
}

// farmOutputs holds the outputs results give back (Release): up to two, of
// at most maxKeptOutput bytes each, one for each of the two transcode
// workers the shipped fleet runs, converting a one-rendition ladder.
var farmOutputs = NewBuffers(2, maxKeptOutput)

// maxKeptOutput is a 4-minute rendition at the site's 2 Mbps target; a
// longer one is left to the collector rather than held.
const maxKeptOutput = 64 << 20

// Buffers is a bounded free list of byte buffers, for a path that fills a
// large buffer whole, uses it and lets go of it at a point it knows: a
// buffer given back is the next one of its size taken, and is overwritten
// rather than zeroed. It holds at most its slot count, so what it keeps live
// is bounded; a sync.Pool keeps what it was given until two collections
// pass, which a burst of puts turns into a peak of resident memory.
type Buffers struct {
	mu       sync.Mutex
	free     [][]byte
	slots    int
	maxBytes int
}

// NewBuffers returns a free list that keeps up to slots buffers of at most
// maxBytes capacity each.
func NewBuffers(slots, maxBytes int) *Buffers {
	return &Buffers{slots: slots, maxBytes: maxBytes}
}

// Get returns a buffer of length n, contents undefined: the smallest one
// kept that holds n bytes, or else a new one.
func (l *Buffers) Get(n int) []byte {
	l.mu.Lock()
	best := -1
	for i, b := range l.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]byte, n)
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best], l.free[last] = l.free[last], nil
	l.free = l.free[:last]
	l.mu.Unlock()
	return b[:n]
}

// Put gives b back: nothing may read or write it, or any view of it, after.
// A buffer over the size bound is dropped, and so is the smallest one when
// every slot is taken. Under the race detector, which cannot see a view used
// after Put, b is first overwritten with a pattern no payload has, so such a
// use reads garbage instead of passing for valid bytes until b is reused.
func (l *Buffers) Put(b []byte) {
	b = b[:cap(b)]
	if len(b) == 0 || len(b) > l.maxBytes {
		return
	}
	if raceEnabled {
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.slots {
		l.free = append(l.free, b)
		return
	}
	small := -1
	for i, f := range l.free {
		if cap(f) < len(b) && (small < 0 || cap(f) < cap(l.free[small])) {
			small = i
		}
	}
	if small >= 0 {
		l.free[small] = b
	}
}

// Speedup returns SingleNodeDuration / Duration.
func (r *FarmResult) Speedup() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.SingleNodeDuration) / float64(r.Duration)
}

// segTask is one unit of farm work: convert the GOPs of one segment to one
// target rendition.
type segTask struct {
	target   int
	seg      int
	bounds   segBounds
	inBytes  int64
	outBytes int64
	// cost is the modelled compute + scatter/gather time on one node.
	cost time.Duration
}

// nodeSlot is a node's modelled timeline in the deterministic list schedule.
type nodeSlot struct {
	name string
	free time.Duration
}

// convScratch is the per-conversion scheduling state. Conversions run once
// per upload on the serving hot path, so the slices are pooled instead of
// reallocated every call.
type convScratch struct {
	tasks []segTask
	order []int
	slots []nodeSlot
}

var scratchPool = sync.Pool{New: func() any { return new(convScratch) }}

// Convert runs the split → parallel transcode → merge pipeline for one
// target rendition. The target must keep the source's GOP cadence
// (Spec.GOPSeconds): the single-split pipeline relies on input and output
// sharing GOP boundaries, so cadence-changing targets are rejected — a
// behavior change from the pre-pool farm, which re-split per rendition.
func (f Farm) Convert(data []byte, target Spec) (*FarmResult, error) {
	return f.ConvertContext(context.Background(), data, target)
}

// ConvertContext is Convert with caller-controlled cancellation.
func (f Farm) ConvertContext(ctx context.Context, data []byte, target Spec) (*FarmResult, error) {
	results, err := f.ConvertMultiContext(ctx, data, target)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ConvertMulti converts one upload to every target rendition through a
// single pass: the source is parsed and partitioned once, and all
// (segment × rendition) tasks drain through one worker pool. Results are
// returned in target order, each bit-identical to a standalone Convert.
// Like Convert, every target must keep the source's GOP cadence
// (Spec.GOPSeconds); cadence-changing targets are rejected.
func (f Farm) ConvertMulti(data []byte, targets ...Spec) ([]*FarmResult, error) {
	return f.ConvertMultiContext(context.Background(), data, targets...)
}

// ConvertMultiContext is ConvertMulti with caller-controlled cancellation.
func (f Farm) ConvertMultiContext(ctx context.Context, data []byte, targets ...Spec) ([]*FarmResult, error) {
	if len(f.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	if len(targets) == 0 {
		return nil, errors.New("video: conversion with no targets")
	}
	info, gops, err := Parse(data)
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		if err := t.validate(); err != nil {
			return nil, err
		}
		if t.GOPSeconds != info.Spec.GOPSeconds {
			return nil, fmt.Errorf("video: GOP cadence change %d->%d not supported",
				info.Spec.GOPSeconds, t.GOPSeconds)
		}
	}
	perNode := f.SegmentsPerNode
	if perNode <= 0 {
		perNode = 2
	}
	bounds := partition(len(gops), len(f.Nodes)*perNode)

	// One output buffer per rendition, from the free list results are
	// released to; workers write converted GOPs directly at their computed
	// offsets, so assembly needs no merge pass and no per-GOP allocation.
	// Header and GOP records cover every byte, so a reused buffer's old
	// contents never show.
	outInfos := make([]Info, len(targets))
	outs := make([][]byte, len(targets))
	headerLens := make([]int, len(targets))
	seeds := make([]uint64, len(targets))
	for ti, t := range targets {
		outInfos[ti] = Info{
			Spec: t, DurationSeconds: info.DurationSeconds,
			GOPs: info.GOPs, FirstGOP: info.FirstGOP,
		}
		outs[ti] = farmOutputs.Get(int(outInfos[ti].Size()))
		headerLens[ti] = len(appendHeader(outs[ti][:0], outInfos[ti]))
		seeds[ti] = specSeed(t)
	}

	scratch := scratchPool.Get().(*convScratch)
	defer func() {
		scratch.tasks = scratch.tasks[:0]
		scratch.order = scratch.order[:0]
		scratch.slots = scratch.slots[:0]
		scratchPool.Put(scratch)
	}()
	tasks := scratch.tasks[:0]
	for ti, t := range targets {
		for si, b := range bounds {
			segInfo := segmentInfo(info, b)
			inBytes := headerSize(segInfo)
			for _, g := range gops[b.start:b.end] {
				inBytes += gopHeaderLen + g.length
			}
			outSegInfo := segInfo
			outSegInfo.Spec = t
			cpu := CostSeconds(info.Spec, t, float64(segInfo.DurationSeconds)) / f.nodeSpeed()
			xfer := (float64(inBytes) + float64(outSegInfo.Size())) / f.netBandwidth()
			tasks = append(tasks, segTask{
				target: ti, seg: si, bounds: b,
				inBytes: inBytes, outBytes: outSegInfo.Size(),
				cost: time.Duration(cpu*float64(time.Second)) +
					time.Duration(xfer*float64(time.Second)),
			})
		}
	}

	// Longest-processing-time order: workers grab the big segments first so
	// the stragglers land at the end of the schedule, which is also what
	// the deterministic model below assumes.
	order := scratch.order[:0]
	for i := range tasks {
		order = append(order, i)
	}
	lptLess := func(a, b segTask) bool {
		if a.cost != b.cost {
			return a.cost > b.cost
		}
		if a.target != b.target {
			return a.target < b.target
		}
		return a.seg < b.seg
	}
	sort.Slice(order, func(a, b int) bool { return lptLess(tasks[order[a]], tasks[order[b]]) })
	scratch.tasks, scratch.order = tasks, order

	csp := trace.FromContext(ctx).StartChild("farm.convert")
	if csp != nil {
		csp.AnnotateInt("gops", int64(len(gops)))
		csp.AnnotateInt("segments", int64(len(bounds)))
		csp.AnnotateInt("renditions", int64(len(targets)))
		csp.AnnotateInt("nodes", int64(len(f.Nodes)))
	}
	wall, err := f.runPool(ctx, csp, data, gops, tasks, order, targets, seeds, outs, headerLens)
	if err != nil {
		csp.SetError(err)
		csp.End()
		for _, out := range outs { // every worker has returned
			farmOutputs.Put(out)
		}
		return nil, err
	}
	csp.End()

	// Deterministic modelled schedule, one per rendition, identical to what
	// a standalone Convert of that rendition reports: LPT list scheduling
	// of the rendition's segments over one slot per node.
	results := make([]*FarmResult, len(targets))
	for ti, t := range targets {
		slots := scratch.slots[:0]
		for _, n := range f.Nodes {
			slots = append(slots, nodeSlot{name: n})
		}
		stats := make([]SegmentStat, len(bounds))
		var makespan time.Duration
		for _, i := range order {
			tk := tasks[i]
			if tk.target != ti {
				continue
			}
			s := 0
			for c := 1; c < len(slots); c++ {
				if slots[c].free < slots[s].free ||
					(slots[c].free == slots[s].free && slots[c].name < slots[s].name) {
					s = c
				}
			}
			start := slots[s].free
			slots[s].free += tk.cost
			if slots[s].free > makespan {
				makespan = slots[s].free
			}
			stats[tk.seg] = SegmentStat{
				Node: slots[s].name, GOPs: tk.bounds.end - tk.bounds.start,
				InBytes: tk.inBytes, Start: start, End: slots[s].free,
			}
		}
		scratch.slots = slots[:0]
		// Merge cost: re-writing the output once at disk speed.
		mergeCost := time.Duration(float64(len(outs[ti])) / 120e6 * float64(time.Second))
		single := CostSeconds(info.Spec, t, float64(info.DurationSeconds)) / f.nodeSpeed()
		results[ti] = &FarmResult{
			Output:             outs[ti],
			Info:               outInfos[ti],
			Duration:           makespan + mergeCost,
			SingleNodeDuration: time.Duration(single * float64(time.Second)),
			WallDuration:       wall,
			Segments:           stats,
		}
	}
	return results, nil
}

// runPool executes the task list on min(nodes, tasks) worker goroutines.
// The first failing task cancels the shared context; workers drain the
// remaining queue without doing work, and in-flight segment loops abort at
// their next GOP-batch cancellation check.
func (f Farm) runPool(ctx context.Context, csp *trace.Span, data []byte, gops []gopRange,
	tasks []segTask, order []int, targets []Spec, seeds []uint64,
	outs [][]byte, headerLens []int) (time.Duration, error) {

	if len(tasks) == 0 {
		return 0, ctx.Err()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	workers := len(f.Nodes)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	taskCh := make(chan segTask)
	start := time.Now()
	for w := 0; w < workers; w++ {
		node := f.Nodes[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range taskCh {
				if cctx.Err() != nil {
					continue // cancelled: drain without working
				}
				tsp := csp.StartChild("farm.task")
				if tsp != nil {
					tsp.Annotate("node", node)
					tsp.AnnotateInt("segment", int64(tk.seg))
					tsp.AnnotateInt("rendition", int64(tk.target))
				}
				if f.FaultHook != nil {
					if err := f.FaultHook(node, tk.seg); err != nil {
						tsp.SetError(err)
						tsp.End()
						fail(err)
						continue
					}
				}
				if err := runTask(cctx, data, gops, targets[tk.target],
					seeds[tk.target], outs[tk.target], headerLens[tk.target], tk); err != nil {
					tsp.SetError(err)
					fail(err)
				}
				tsp.End()
			}
		}()
	}
	for _, i := range order {
		if cctx.Err() != nil {
			break
		}
		select {
		case taskCh <- tasks[i]:
		case <-cctx.Done():
		}
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return time.Since(start), ctx.Err()
}

// runTask converts one segment's GOPs for one rendition, writing framing and
// payload straight into the rendition's pre-sized output buffer. Disjoint
// tasks touch disjoint byte ranges, so workers never contend.
func runTask(ctx context.Context, data []byte, gops []gopRange,
	target Spec, seed uint64, out []byte, headerLen int, tk segTask) error {

	gopLen := int(target.gopBytes())
	stride := int(gopHeaderLen) + gopLen
	for j := tk.bounds.start; j < tk.bounds.end; j++ {
		// Cancellation check per GOP batch: cheap enough to keep aborts
		// prompt without a per-byte tax.
		if (j-tk.bounds.start)%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		g := gops[j]
		buf := out[headerLen+j*stride : headerLen+(j+1)*stride]
		copy(buf, gopMagic)
		binary.BigEndian.PutUint32(buf[4:], g.index)
		binary.BigEndian.PutUint32(buf[8:], uint32(gopLen))
		transcodeGOPInto(buf[gopHeaderLen:], data[g.payload:g.payload+g.length], g.index, seed)
	}
	return nil
}
