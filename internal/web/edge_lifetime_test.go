package web

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
)

// stallWriter is a response writer that, handed the first piece of a body,
// waits until it is let go before it reads it: a slow client holding its edge
// entry while the cache evicts and purges around it.
type stallWriter struct {
	hdr     http.Header
	status  int
	body    bytes.Buffer
	stalled chan struct{} // closed at the first Write
	resume  chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(c int)   { w.status = c }
func (w *stallWriter) Write(b []byte) (int, error) {
	if w.body.Len() == 0 {
		close(w.stalled)
		<-w.resume
	}
	return w.body.Write(b)
}

// TestEdgeEntryLifetimeSoak pins the rule that an edge entry's views stay
// valid while anyone holds it: the cache, or a response still writing it.
// Readers hit and fill segments through an edge with room for two, so it
// evicts constantly, while a publisher uploads and deletes titles (each
// delete purges the edge and the HDFS objects) and a stalled writer is held
// mid-body across evictions and the purge of its own title. The block cache
// keeps nothing idle, so an extent released early goes straight back to the
// pool, poisoned under -race. Every body must match its CRC, and once every
// title is deleted no block-cache reference may be left.
func TestEdgeEntryLifetimeSoak(t *testing.T) {
	const (
		stable  = 3  // titles served throughout
		churn   = 6  // titles published, served and deleted one after another
		readers = 3  // goroutines hitting and filling segments
		ops     = 80 // requests per reader
		stalls  = 4  // stalled responses
	)
	cluster := hdfs.NewCluster(4, 256*1024)
	cluster.SetBlockCacheCapacity(1) // no idle extent stays resident
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry()
	site, err := New(Config{
		Store:          mount,
		Farm:           video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target:         video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		EdgeCacheBytes: 300_000, // two 4 s segments at 100 kbps, each charged half its 256 KiB extent
		Tenants:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	op := operatorToken(t, reg)

	// crcs holds, per published title, each segment's CRC read from HDFS
	// past the edge. A title leaves it before its delete.
	var (
		mu        sync.Mutex
		crcs      = map[int64][]uint32{}
		publishMu sync.Mutex // an upload and its drain, one at a time
		serial    uint64
	)
	publish := func() int64 {
		publishMu.Lock()
		defer publishMu.Unlock()
		serial++
		seed := serial
		id, err := site.ProcessUpload(context.Background(), site.AdminID(), fmt.Sprint("soak ", seed), "", testUploadMedia(t, 12, seed))
		if err != nil {
			t.Error(err)
			return 0
		}
		site.DrainTranscodes()
		var sums []uint32
		for k := 0; ; k++ {
			data, err := mount.ReadFileCtx(context.Background(), segmentPath(id, "720p", k))
			if err != nil {
				break
			}
			sums = append(sums, crc32.ChecksumIEEE(data))
		}
		if len(sums) == 0 {
			t.Errorf("title %d published no segments", id)
		}
		mu.Lock()
		crcs[id] = sums
		mu.Unlock()
		return id
	}
	unpublish := func(id int64) {
		mu.Lock()
		delete(crcs, id)
		mu.Unlock()
		if rec := do(site, "POST", fmt.Sprintf("/watch/%d/delete", id), op, nil); rec.Code != http.StatusSeeOther {
			t.Errorf("delete %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	// pick returns a published title's segment and its CRC.
	pick := func(rng *rand.Rand) (id int64, k int, sum uint32, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(crcs) == 0 {
			return 0, 0, 0, false
		}
		n := rng.Intn(len(crcs))
		for id, sums := range crcs {
			if n == 0 {
				k = rng.Intn(len(sums))
				return id, k, sums[k], true
			}
			n--
		}
		panic("unreachable")
	}
	// check validates one response: a published segment, byte for byte. A
	// title deleted under the request may instead answer 404 (its row is
	// gone) or 503 (its row was read, then its blocks went).
	check := func(id int64, k int, sum uint32, status int, body []byte) {
		mu.Lock()
		_, live := crcs[id]
		mu.Unlock()
		switch {
		case status == http.StatusOK && crc32.ChecksumIEEE(body) != sum:
			t.Errorf("segment %d/%d: %d bytes that do not match its CRC", id, k, len(body))
		case status != http.StatusOK && (live || status != http.StatusNotFound && status != http.StatusServiceUnavailable):
			t.Errorf("segment %d/%d: status %d", id, k, status)
		}
	}
	segURL := func(id int64, k int) string { return fmt.Sprintf("/segment/%d/720p/%d", id, k) }

	for range stable {
		publish()
	}
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range ops {
				if id, k, sum, ok := pick(rng); ok {
					rec := do(site, "GET", segURL(id, k), "", nil)
					check(id, k, sum, rec.Code, rec.Body.Bytes())
				}
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	wg.Add(1)
	go func() { // the publisher: each churn title lives for a few reads
		defer wg.Done()
		for range churn {
			if id := publish(); id != 0 {
				for k := range 3 {
					do(site, "GET", segURL(id, k), "", nil)
				}
				unpublish(id)
			}
		}
	}()
	wg.Add(1)
	go func() { // the staller: a response held mid-body while its entry is evicted and its title purged
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for range stalls {
			id := publish()
			if id == 0 {
				return
			}
			mu.Lock()
			sum := crcs[id][0]
			mu.Unlock()
			for range 16 { // hot enough to be admitted, so the held response is a hit
				do(site, "GET", segURL(id, 0), "", nil)
			}
			w := &stallWriter{hdr: http.Header{}, stalled: make(chan struct{}), resume: make(chan struct{})}
			done := make(chan struct{})
			go func() {
				defer close(done)
				site.ServeHTTP(w, httptest.NewRequest(http.MethodGet, segURL(id, 0), nil))
			}()
			<-w.stalled
			for range 6 { // evict the held entry
				if sid, k, ssum, ok := pick(rng); ok && sid != id {
					rec := do(site, "GET", segURL(sid, k), "", nil)
					check(sid, k, ssum, rec.Code, rec.Body.Bytes())
				}
			}
			unpublish(id)
			close(w.resume)
			<-done
			if w.status != http.StatusOK || crc32.ChecksumIEEE(w.body.Bytes()) != sum {
				t.Errorf("stalled response for %d: status %d, %d bytes, CRC match %v",
					id, w.status, w.body.Len(), crc32.ChecksumIEEE(w.body.Bytes()) == sum)
			}
		}
	}()
	wg.Wait()

	mu.Lock()
	var left []int64
	for id := range crcs {
		left = append(left, id)
	}
	mu.Unlock()
	for _, id := range left {
		unpublish(id)
	}
	st := site.EdgeStats()
	t.Logf("edge: %d hits, %d fills, %d joins, %d evictions, %d admission rejects", st.Hits, st.Fills, st.Joins, st.Evictions, st.AdmitRejects)
	if st.Evictions == 0 {
		t.Error("the soak evicted nothing")
	}
	if st.Entries != 0 {
		t.Errorf("%d edge entries survive every title's delete", st.Entries)
	}
	if refs := cluster.Stats().CacheRefs; refs != 0 {
		t.Errorf("%d block-cache references held after every title's delete", refs)
	}
}

// TestEdgePinsStayWithinBudget: a segment far smaller than an extent still
// pins the extent's whole 256 KiB array, and the edge charges the entry at
// least half that memory, so with every segment of a catalog served through
// the edge, twice, the block cache's resident bytes stay within its budget
// plus twice the edge's.
func TestEdgePinsStayWithinBudget(t *testing.T) {
	const (
		blockBudget = 1 << 20
		edgeBudget  = 1 << 20
		titles      = 3
	)
	cluster := hdfs.NewCluster(4, 256*1024)
	cluster.SetBlockCacheCapacity(blockBudget)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	site, err := New(Config{
		Store:          mount,
		Farm:           video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target:         video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		EdgeCacheBytes: edgeBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	var ids []int64
	for seed := range uint64(titles) {
		id, err := site.ProcessUpload(context.Background(), site.AdminID(), fmt.Sprint("pins ", seed), "", testUploadMedia(t, 24, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	site.DrainTranscodes()
	segments := 0
	for range 2 {
		segments = 0
		for _, id := range ids {
			for k := 0; ; k++ {
				rec := do(site, "GET", fmt.Sprintf("/segment/%d/720p/%d", id, k), "", nil)
				if rec.Code == http.StatusNotFound {
					break
				}
				if rec.Code != http.StatusOK {
					t.Fatalf("segment %d/%d: status %d", id, k, rec.Code)
				}
				segments++
			}
		}
	}
	st, hs := site.EdgeStats(), cluster.Stats()
	t.Logf("%d segments; edge: %d entries, %d bytes charged; block cache: %d bytes resident", segments, st.Entries, st.UsedBytes, hs.CacheBytes)
	const bound = blockBudget + 2*edgeBudget
	if segments*256<<10 <= bound {
		t.Fatalf("%d segments would fit the bound even pinned whole", segments)
	}
	if st.Entries == 0 {
		t.Error("the edge cached nothing")
	}
	if hs.CacheBytes > bound {
		t.Errorf("block cache holds %d bytes, over its budget plus twice the edge's (%d)", hs.CacheBytes, bound)
	}
}
