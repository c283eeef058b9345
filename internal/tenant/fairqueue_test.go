package tenant

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFairQueueFIFOWithinFlow(t *testing.T) {
	q := NewFairQueue[int](8)
	for i := 0; i < 5; i++ {
		if err := q.Push("a", 1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, ok := q.Pop()
		if !ok || got != i {
			t.Fatalf("pop %d = %d,%v", i, got, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

// TestFairQueueInterleaves pins the SFQ property: with equal weights and a
// deep backlog from each flow, service alternates rather than draining one
// flow first.
func TestFairQueueInterleaves(t *testing.T) {
	q := NewFairQueue[string](16)
	for i := 0; i < 4; i++ {
		if err := q.Push("bulk", 1, 1, "bulk"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := q.Push("victim", 1, 1, "victim"); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		it, _ := q.Pop()
		order = append(order, it)
	}
	// The victim's first job must come out within the first two pops even
	// though bulk enqueued its whole batch first.
	if order[0] != "victim" && order[1] != "victim" {
		t.Fatalf("victim starved: %v", order)
	}
	// No run of 3+ same-flow pops while both have backlog (positions 0..5).
	for i := 2; i < 6; i++ {
		if order[i] == order[i-1] && order[i-1] == order[i-2] {
			t.Fatalf("3-run of %s at %d: %v", order[i], i, order)
		}
	}
}

// TestFairQueueWeights pins proportional service: a weight-3 flow gets ~3x
// the service of a weight-1 flow over a mixed backlog.
func TestFairQueueWeights(t *testing.T) {
	q := NewFairQueue[string](32)
	for i := 0; i < 8; i++ {
		if err := q.Push("heavy", 3, 1, "heavy"); err != nil {
			t.Fatal(err)
		}
	}
	// light's fair share of 32 slots at weight 1 vs heavy's 3 is 8.
	for i := 0; i < 8; i++ {
		if err := q.Push("light", 1, 1, "light"); err != nil {
			t.Fatal(err)
		}
	}
	heavy := 0
	for i := 0; i < 8; i++ {
		it, _ := q.Pop()
		if it == "heavy" {
			heavy++
		}
	}
	if heavy < 5 || heavy > 7 {
		t.Fatalf("weight-3 flow got %d of first 8 slots, want ~6", heavy)
	}
}

// TestFairQueueCostAware pins that cost feeds the finish tag: one
// expensive job defers the flow's next turn as much as many cheap ones.
func TestFairQueueCostAware(t *testing.T) {
	q := NewFairQueue[string](16)
	q.Push("big", 1, 10, "big-1") // one 10-second source
	q.Push("big", 1, 10, "big-2")
	for i := 0; i < 5; i++ {
		q.Push("small", 1, 2, "small") // five 2-second sources
	}
	// First pop is big-1 (finish 10) vs small (finish 2) -> small wins.
	it, _ := q.Pop()
	if it != "small" {
		t.Fatalf("first pop = %s, want small", it)
	}
	// big-2 (finish 20) must wait for all five smalls (finishes 2..10).
	var popped []string
	for i := 0; i < 6; i++ {
		it, _ := q.Pop()
		popped = append(popped, it)
	}
	if popped[5] != "big-2" {
		t.Fatalf("big-2 jumped the cost line: %v", popped)
	}
}

// TestFairQueueDefaultFlowIsOrdinary pins the single admission contract: the
// default tenant's flow is throttled, pruned and blocked by exactly the
// rules every other flow follows, and a non-positive weight is weight 1.
func TestFairQueueDefaultFlowIsOrdinary(t *testing.T) {
	t.Run("throttled at its share", func(t *testing.T) {
		q := NewFairQueue[int](2)
		for i := 0; i < 2; i++ {
			if err := q.Push(DefaultName, 1, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		// Alone in the queue its share is the whole capacity: the push that
		// used to block forever is refused at once with the typed error.
		err := q.Push(DefaultName, 1, 1, 2)
		var te *ThrottleError
		if !errors.As(err, &te) || te.Flow != DefaultName || te.Backlog != 2 || te.Share != 2 || te.RetryAfter <= 0 {
			t.Fatalf("push at share: err = %v (%+v)", err, te)
		}
		if q.Throttles() != 1 || q.Len() != 2 {
			t.Fatalf("throttles = %d, len = %d", q.Throttles(), q.Len())
		}
	})
	t.Run("pruned when idle", func(t *testing.T) {
		q := NewFairQueue[int](2)
		q.Push(DefaultName, 1, 1, 1)
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
		q.mu.Lock()
		flows := len(q.flows)
		q.mu.Unlock()
		if flows != 0 {
			t.Fatalf("%d flows kept after the default flow went idle", flows)
		}
	})
	t.Run("blocks under share on a full queue", func(t *testing.T) {
		q := NewFairQueue[int](2)
		q.Push("bulk", 1, 1, 1)
		q.Push("bulk", 1, 1, 2) // bulk alone: share 2, queue now globally full
		unblocked := make(chan error, 1)
		go func() { unblocked <- q.Push(DefaultName, 1, 1, 3) }()
		select {
		case err := <-unblocked:
			t.Fatalf("under-share push did not block on a full queue: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
		if err := <-unblocked; err != nil {
			t.Fatalf("unblocked push: %v", err)
		}
		if q.Throttles() != 0 || q.Backlog(DefaultName) != 1 {
			t.Fatalf("throttles = %d, default backlog = %d", q.Throttles(), q.Backlog(DefaultName))
		}
	})
	t.Run("weight 0 is weight 1", func(t *testing.T) {
		// Two equal-cost backlogs, one pushed with weight 0 and one with
		// weight 1, share a cap-4 queue 2/2 and are served alternately.
		q := NewFairQueue[string](4)
		for i := 0; i < 2; i++ {
			if err := q.Push("zero", 0, 1, "zero"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := q.Push("one", 1, 1, "one"); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Push("zero", 0, 1, "zero"); !errors.Is(err, ErrThrottled) {
			t.Fatalf("weight-0 flow past its half of the queue: %v", err)
		}
		var order []string
		for i := 0; i < 4; i++ {
			it, _ := q.Pop()
			order = append(order, it)
		}
		if got := strings.Join(order, ","); got != "one,zero,one,zero" {
			t.Fatalf("service order = %s, want strict alternation", got)
		}
	})
}

// TestFairQueueThrottlesOverShare pins tenant isolation: a weighted flow
// at its fair share gets an immediate typed ThrottleError instead of
// crowding the queue.
func TestFairQueueThrottlesOverShare(t *testing.T) {
	q := NewFairQueue[int](4)
	var err error
	pushed := 0
	for i := 0; i < 10; i++ {
		err = q.Push("abuser", 1, 1, i)
		if err != nil {
			break
		}
		pushed++
	}
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("deep backlog err = %v", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.Flow != "abuser" || te.RetryAfter <= 0 {
		t.Fatalf("throttle detail: %+v", te)
	}
	if secs, ok := RetryAfterSeconds(err); !ok || secs < 1 {
		t.Fatalf("RetryAfterSeconds = %d,%v", secs, ok)
	}
	// Sole backlogged flow: its share is the whole queue.
	if pushed != 4 {
		t.Fatalf("pushed %d before throttle, want 4 (full share)", pushed)
	}
	if q.Throttles() != 1 {
		t.Fatalf("throttles = %d", q.Throttles())
	}
	// Another tenant still gets in immediately after a drain: the abuser's
	// share shrinks once a second flow has backlog.
	q.Pop()
	if err := q.Push("victim", 1, 1, 99); err != nil {
		t.Fatalf("victim blocked by abuser backlog: %v", err)
	}
	// Now two active flows share capacity 4 -> abuser share is 2, and its
	// backlog (3) is already over it.
	if err := q.Push("abuser", 1, 1, 100); !errors.Is(err, ErrThrottled) {
		t.Fatalf("abuser re-admitted over share: %v", err)
	}
}

func TestFairQueueCloseSemantics(t *testing.T) {
	q := NewFairQueue[int](2)
	q.Push("a", 1, 1, 1)
	q.Push("a", 1, 1, 2)
	blocked := make(chan error, 1)
	go func() { blocked <- q.Push("b", 1, 1, 3) }() // under share, blocks on full
	time.Sleep(20 * time.Millisecond)
	q.Close()
	if err := <-blocked; !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("blocked push after close: %v", err)
	}
	// Poppers drain the backlog, then get ok=false.
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("drain 1: %d,%v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != 2 {
		t.Fatalf("drain 2: %d,%v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain returned an item")
	}
	if err := q.Push("a", 1, 1, 4); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close: %v", err)
	}
}

// TestFairQueueConcurrent race-exercises mixed pushers and poppers; every
// pushed item must be popped exactly once.
func TestFairQueueConcurrent(t *testing.T) {
	q := NewFairQueue[int](8)
	const perFlow = 200
	flows := []string{DefaultName, "a", "b", "c"}
	var pushWG sync.WaitGroup
	var pushed, throttled sync.Map
	var pushedCount, throttledCount int64
	var mu sync.Mutex
	for fi, flow := range flows {
		pushWG.Add(1)
		go func(fi int, flow string) {
			defer pushWG.Done()
			for i := 0; i < perFlow; i++ {
				id := fi*perFlow + i
				for {
					err := q.Push(flow, 1, 1, id)
					if err == nil {
						pushed.Store(id, true)
						mu.Lock()
						pushedCount++
						mu.Unlock()
						break
					}
					if errors.Is(err, ErrThrottled) {
						throttled.Store(id, true)
						mu.Lock()
						throttledCount++
						mu.Unlock()
						time.Sleep(time.Millisecond)
						continue
					}
					t.Errorf("push: %v", err)
					return
				}
			}
		}(fi, flow)
	}
	var popWG sync.WaitGroup
	var popMu sync.Mutex
	got := make(map[int]int)
	for w := 0; w < 3; w++ {
		popWG.Add(1)
		go func() {
			defer popWG.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				popMu.Lock()
				got[v]++
				popMu.Unlock()
			}
		}()
	}
	pushWG.Wait()
	q.Close()
	popWG.Wait()
	mu.Lock()
	total := pushedCount
	mu.Unlock()
	if int64(len(got)) != total {
		t.Fatalf("popped %d distinct items, pushed %d", len(got), total)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("item %d popped %d times", id, n)
		}
	}
}
