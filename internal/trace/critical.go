package trace

import (
	"sort"
	"time"
)

// PathStep is one segment of a trace's critical path: the half-open wall
// interval [Start, End) (offsets from the trace start) attributed to one
// span's own work — the time no deeper child accounts for.
type PathStep struct {
	SpanID uint64        `json:"span_id"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// LayerTime is one layer's share of a critical path.
type LayerTime struct {
	Layer string        `json:"layer"`
	Time  time.Duration `json:"time_ns"`
}

// PathSummary is the per-layer attribution of a trace's critical path.
type PathSummary struct {
	Total    time.Duration // the root span's wall window
	RootSelf time.Duration // root time no child accounts for
	Coverage float64       // 1 - RootSelf/Total: fraction attributed to children
	Layers   []LayerTime   // self-time per layer, largest first
	Steps    []PathStep    // the full path, earliest first
}

// cpNode is a span plus its effective end: the latest wall end among the
// span and all its descendants. Async children (queue work) may outlive
// their parent; the effective end extends the parent's window so their time
// still lands on the path.
type cpNode struct {
	SpanData
	effEnd   time.Duration
	children []*cpNode
	used     bool
}

// CriticalPath walks a completed trace backward from the root's effective
// end, always descending into the child that was last active, and returns
// the sequence of self-time segments covering the whole window. Every
// instant of the root's window is attributed to exactly one span; gaps no
// child covers become the parent's own time.
func CriticalPath(tr *Trace) []PathStep {
	if tr == nil || len(tr.Spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*cpNode, len(tr.Spans))
	for _, s := range tr.Spans {
		nodes[s.SpanID] = &cpNode{SpanData: s, effEnd: s.End()}
	}
	var root *cpNode
	for _, n := range nodes {
		if p := nodes[n.ParentID]; n.ParentID != 0 && p != nil {
			p.children = append(p.children, n)
		} else if n.ParentID == 0 {
			if root == nil || n.Start < root.Start {
				root = n
			}
		}
	}
	if root == nil {
		return nil
	}
	var lift func(n *cpNode) time.Duration
	lift = func(n *cpNode) time.Duration {
		for _, c := range n.children {
			if e := lift(c); e > n.effEnd {
				n.effEnd = e
			}
		}
		return n.effEnd
	}
	lift(root)

	var steps []PathStep
	var walk func(n *cpNode, winStart, winEnd time.Duration)
	walk = func(n *cpNode, winStart, winEnd time.Duration) {
		cur := winEnd
		for cur > winStart {
			// The child that was last active strictly before cur.
			var best *cpNode
			bestEnd := time.Duration(-1)
			for _, c := range n.children {
				if c.used || c.Start >= cur {
					continue
				}
				ce := c.effEnd
				if ce > cur {
					ce = cur
				}
				if ce > bestEnd || (ce == bestEnd && best != nil && c.Start > best.Start) {
					best, bestEnd = c, ce
				}
			}
			if best == nil {
				break
			}
			best.used = true
			if bestEnd < cur {
				steps = append(steps, PathStep{n.SpanID, n.Name, n.Layer, bestEnd, cur})
			}
			cs := best.Start
			if cs < winStart {
				cs = winStart
			}
			walk(best, cs, bestEnd)
			cur = cs
		}
		if cur > winStart {
			steps = append(steps, PathStep{n.SpanID, n.Name, n.Layer, winStart, cur})
		}
	}
	walk(root, root.Start, root.effEnd)
	sort.Slice(steps, func(i, j int) bool { return steps[i].Start < steps[j].Start })
	return steps
}

// Summarize extracts the critical path and attributes it per layer. Total
// is the root's effective window; Coverage is the fraction of that window
// attributed to spans other than the root itself.
func Summarize(tr *Trace) PathSummary {
	steps := CriticalPath(tr)
	if len(steps) == 0 {
		return PathSummary{}
	}
	root, _ := tr.RootSpan()
	byLayer := map[string]time.Duration{}
	var total, rootSelf time.Duration
	for _, st := range steps {
		d := st.End - st.Start
		total += d
		byLayer[st.Layer] += d
		if st.SpanID == root.SpanID {
			rootSelf += d
		}
	}
	layers := make([]LayerTime, 0, len(byLayer))
	for l, d := range byLayer {
		layers = append(layers, LayerTime{Layer: l, Time: d})
	}
	sort.Slice(layers, func(i, j int) bool {
		if layers[i].Time != layers[j].Time {
			return layers[i].Time > layers[j].Time
		}
		return layers[i].Layer < layers[j].Layer
	})
	cov := 0.0
	if total > 0 {
		cov = 1 - float64(rootSelf)/float64(total)
	}
	return PathSummary{Total: total, RootSelf: rootSelf, Coverage: cov, Layers: layers, Steps: steps}
}
