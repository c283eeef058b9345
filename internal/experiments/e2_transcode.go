package experiments

import (
	"bytes"
	"fmt"

	"videocloud/internal/metrics"
	"videocloud/internal/video"
)

// E2ParallelTranscode reproduces Figure 16 and the §III claim that
// distributed FFmpeg conversion "takes even less execution time than
// transferring files by FFmpeg on a single node". A 10-minute MPEG-4 upload
// is converted to the player's H.264/720p on 1..16 nodes. Expected shape:
// near-linear speedup at small node counts, flattening as per-segment
// scatter/gather overhead and the straggler segment dominate; output is
// verified bit-identical to single-node conversion at every point.
func E2ParallelTranscode() *metrics.Table {
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_500_000}
	dst := video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 2_000_000}
	data, err := video.Generate(src, 600, 2012)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	whole, err := video.Transcoder{}.Convert(data, dst)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}

	// Columns: the modelled schedule (parallel_s/speedup, deterministic —
	// these reproduce Figure 16) plus the measured wall clock of the real
	// worker pool (wall_ms/wall_speedup, hardware-dependent and reported
	// for information only: a single-core machine legitimately shows ~1×).
	t := metrics.NewTable("E2 — distributed FFmpeg conversion (10-min video, Fig 16)",
		"nodes", "segments", "parallel_s", "single_node_s", "speedup", "identical_output", "wall_ms", "wall_speedup")
	var prev float64
	var wallOneNode float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("dn%d", i)
		}
		res, err := video.Farm{Nodes: nodes}.Convert(data, dst)
		if err != nil {
			panic(fmt.Sprintf("experiments: farm: %v", err))
		}
		identical := bytes.Equal(res.Output, whole.Output)
		check(identical, "E2: %d-node output differs from single-node conversion", n)
		sp := res.Speedup()
		wallMs := float64(res.WallDuration.Milliseconds())
		if n == 1 {
			wallOneNode = float64(res.WallDuration)
		}
		wallSp := 0.0
		if res.WallDuration > 0 {
			wallSp = wallOneNode / float64(res.WallDuration)
		}
		t.AddRow(n, len(res.Segments), secs(res.Duration), secs(res.SingleNodeDuration), sp, identical, wallMs, wallSp)
		if n > 1 {
			check(sp > prev, "E2: speedup not monotone at %d nodes (%.2f <= %.2f)", n, sp, prev)
			check(sp > 1, "E2: %d nodes slower than one node", n)
		}
		prev = sp
	}
	return t
}
