package web

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"videocloud/internal/video"
)

// Pool mechanics: drain gates assignment, add un-drains, remove deletes,
// expel cancels exactly the conversions whose snapshot includes the node,
// and an all-drained pool falls back to the base nodes rather than refusing
// conversions. The pool is the fleet's: each controller call is made once, on
// one replica, and every replica sees its effect.
func TestFarmPoolLifecycle(t *testing.T) {
	for _, frontends := range []int{1, 2} {
		t.Run(fmt.Sprintf("frontends=%d", frontends), func(t *testing.T) {
			sites := asyncFleet(t, frontends, Config{Farm: video.Farm{Nodes: []string{"a", "b"}}})
			first, last := sites[0], sites[frontends-1]
			p := first.state.pool
			a, b := "a", "b"

			ctx1, farm1, release1 := p.acquire(context.Background())
			if len(farm1.Nodes) != 2 {
				t.Fatalf("initial snapshot = %v", farm1.Nodes)
			}
			for i, s := range sites {
				if s.FarmNodeInFlight(a) != 1 || s.FarmNodeInFlight(b) != 1 {
					t.Fatalf("replica %d: acquire did not register per-node in-flight", i)
				}
			}

			// Draining b: new snapshots exclude it, the in-flight conversion keeps it.
			first.DrainFarmNode(b)
			_, farm2, release2 := p.acquire(context.Background())
			if len(farm2.Nodes) != 1 || farm2.Nodes[0] != a {
				t.Fatalf("snapshot during drain = %v, want [%s]", farm2.Nodes, a)
			}
			st := last.TranscodeStats()
			if st.ActiveConversions != 2 {
				t.Fatalf("active conversions = %d", st.ActiveConversions)
			}
			drainingB := false
			for _, r := range st.Nodes {
				if r.Node == b && r.Draining {
					drainingB = true
				}
			}
			if !drainingB {
				t.Fatalf("snapshot rows = %+v, want %s draining", st.Nodes, b)
			}

			// Reclaim: add on a draining node returns it to service.
			last.AddFarmNode(b)
			_, farm3, release3 := p.acquire(context.Background())
			if len(farm3.Nodes) != 2 {
				t.Fatalf("snapshot after reclaim = %v", farm3.Nodes)
			}
			release3()

			// Expel b: conv1 and conv3 used it, conv2 did not.
			if n := first.ExpelFarmNode(b); n != 1 {
				t.Fatalf("expel interrupted %d conversions, want 1 (conv2 excluded %s)", n, b)
			}
			if cause := context.Cause(ctx1); !errors.Is(cause, errFarmNodeExpelled) {
				t.Fatalf("conv1 cause = %v", cause)
			}
			release1()
			release2()

			// Everything drained: the liveness fallback hands out the base nodes.
			last.DrainFarmNode(a)
			_, farm4, release4 := p.acquire(context.Background())
			if len(farm4.Nodes) != 2 {
				t.Fatalf("all-drained fallback = %v, want base nodes", farm4.Nodes)
			}
			release4()

			first.RemoveFarmNode(a)
			for i, s := range sites {
				if st := s.TranscodeStats(); len(st.Nodes) != 0 || st.ActiveConversions != 0 {
					t.Fatalf("replica %d after remove: rows %+v, %d conversions", i, st.Nodes, st.ActiveConversions)
				}
			}
		})
	}
}

// Satellite: a scale-down in the middle of an upload burst must not lose or
// kill a single accepted transcode. The drained node's in-flight conversions
// are cancelled at the deadline (expel) and transparently retried on the
// surviving nodes — requeued, not dropped. Run under -race by `make tier1`.
func TestScaleDownMidBurstCompletesEverything(t *testing.T) {
	for _, frontends := range []int{1, 2} {
		t.Run(fmt.Sprintf("frontends=%d", frontends), func(t *testing.T) {
			// Segments are work-stolen off a shared channel, so no particular node
			// is guaranteed work: the victim is whichever node first picks up a
			// segment, and from then on only that node stalls.
			var mu sync.Mutex
			victim := ""
			blocked := make(chan struct{}) // closed when the victim first stalls a conversion
			release := make(chan struct{}) // closed by the test after the expel
			hook := func(node string, segment int) error {
				mu.Lock()
				if victim == "" {
					victim = node
					mu.Unlock()
					close(blocked)
					<-release
					return nil
				}
				stall := node == victim
				mu.Unlock()
				if stall {
					<-release
				}
				return nil
			}
			sites := asyncFleet(t, frontends, asyncConfig(2, 32, hook))
			site := sites[0]
			defer func() {
				select {
				case <-release:
				default:
					close(release) // a failing test must still unpark the farm
				}
			}()

			var ids []int64
			for i := 0; i < 6; i++ {
				id, err := sites[i%frontends].ProcessUpload(context.Background(), site.AdminID(),
					fmt.Sprintf("burst-%d", i), "mid-burst scale-down", testUploadMedia(t, 12, uint64(i+1)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			<-blocked // at least one conversion is now pinned on the victim node

			// Scale-down: drain first (no new work), then the deadline expires and
			// the node is expelled with work still in flight. Each call is made
			// once; the last replica reads what the first one did.
			site.DrainFarmNode(victim)
			deadline := time.Now().Add(5 * time.Second)
			for sites[frontends-1].FarmNodeInFlight(victim) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no in-flight work registered on %s", victim)
				}
				time.Sleep(time.Millisecond)
			}
			interrupted := site.ExpelFarmNode(victim)
			if interrupted == 0 {
				t.Fatal("expel interrupted nothing")
			}
			close(release)
			site.DrainTranscodes()

			// Zero lost, zero killed: every accepted upload reached "ready".
			for _, id := range ids {
				if got := videoStatus(t, site, id); got != statusReady {
					t.Fatalf("video %d = %q after scale-down, want %q", id, got, statusReady)
				}
			}
			var completed, failed, requeues int64
			for i, s := range sites {
				st := s.TranscodeStats()
				completed, failed, requeues = completed+st.Completed, failed+st.Failed, requeues+st.Requeues
				for _, row := range st.Nodes {
					if row.Node == victim {
						t.Fatalf("replica %d: %s still in the pool: %+v", i, victim, st.Nodes)
					}
				}
				if s.FarmNodeInFlight(victim) != 0 {
					t.Fatalf("replica %d: in-flight count leaked for the expelled node", i)
				}
			}
			if failed != 0 || completed != int64(len(ids)) {
				t.Fatalf("%d completed, %d failed, want all %d completed", completed, failed, len(ids))
			}
			if requeues == 0 {
				t.Fatal("expelled conversions were not requeued")
			}
		})
	}
}

// The queue-depth and wait-tail gauges the elastic controller scales on are
// surfaced in TranscodeStats.
func TestTranscodeLoadAndWaitGauges(t *testing.T) {
	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	defer open()
	site := asyncSite(t, 1, 8, func(string, int) error {
		<-gate
		return nil
	})

	for i := 0; i < 3; i++ {
		if _, err := site.ProcessUpload(context.Background(), site.AdminID(),
			fmt.Sprintf("queued-%d", i), "", testUploadMedia(t, 4, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for site.TranscodeLoad() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("TranscodeLoad = %d, want >= 3 (queued + in flight)", site.TranscodeLoad())
		}
		time.Sleep(time.Millisecond)
	}
	open()
	site.DrainTranscodes()

	if site.TranscodeLoad() != 0 {
		t.Fatalf("TranscodeLoad after drain = %d", site.TranscodeLoad())
	}
	st := site.TranscodeStats()
	if st.WaitP99Seconds <= 0 {
		t.Fatalf("WaitP99Seconds = %v, want > 0 (jobs waited behind the gate)", st.WaitP99Seconds)
	}
	if st.QueueDepth != 0 || st.ActiveConversions != 0 {
		t.Fatalf("post-drain gauges = %+v", st)
	}
	if len(st.Nodes) == 0 {
		t.Fatal("no per-node rows")
	}
}
