package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/cookiejar"

	"videocloud/internal/core"
	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/metrics"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

// seedSource is the upload format of every seeded title: a 480p MPEG-4 clip
// the farm converts to the rig's target on publish.
var seedSource = video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}

// rigTarget is the playback encoding of the load-driven rigs (E9b, E14, E15,
// E17): ~750 KB per 30 s title, so a view is a handful of Range windows.
var rigTarget = video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000}

// rig is the serving tier the HTTP-driven experiments (E9, E9b, E13-E15,
// E17) run against: a four-DataNode HDFS cluster behind a FUSE mount, the
// tier core.NewServingTier builds over it, and a loopback listener in front.
type rig struct {
	cluster *hdfs.Cluster
	tier    *core.ServingTier
	site    *web.Site // tier.Sites[0]
	url     string
	srv     *http.Server
	ids     []int64 // titles published by seed, in upload order
}

// newRig stands the tier up. cfg says what differs between experiments
// (target, renditions, pacing, tracer, tenants); Store and Farm are filled in
// here. blockCache budgets the HDFS extent cache (0 = the default, as in
// core.Config.BlockCacheBytes).
func newRig(cfg web.Config, frontends, shards int, blockSize, blockCache int64) *rig {
	r := &rig{cluster: hdfs.NewCluster(4, blockSize)}
	r.cluster.SetBlockCacheCapacity(blockCache)
	var err error
	if cfg.Store, err = fusebridge.New(r.cluster.Client(""), "/site", 2); err != nil {
		panic(fmt.Sprintf("experiments: mount: %v", err))
	}
	cfg.Farm = video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}}
	if r.tier, err = core.NewServingTier(cfg, frontends, shards, metrics.NewRegistry()); err != nil {
		panic(fmt.Sprintf("experiments: serving tier: %v", err))
	}
	r.site = r.tier.Sites[0]
	r.url, r.srv = serveLoopback(r.tier.Handler())
	return r
}

func (r *rig) close() {
	r.srv.Close()
	r.tier.Close()
}

// seed publishes n titles of the given source length as the admin (user id
// 1) and appends their ids to r.ids.
func (r *rig) seed(n, seconds int) {
	for i := 0; i < n; i++ {
		data, err := video.Generate(seedSource, seconds, uint64(len(r.ids)+1))
		if err != nil {
			panic(err)
		}
		id, err := r.site.ProcessUpload(context.Background(), 1,
			fmt.Sprintf("seeded video %d dance cloud", len(r.ids)), "catalog fixture", data)
		if err != nil {
			panic(fmt.Sprintf("experiments: seeding: %v", err))
		}
		r.ids = append(r.ids, id)
	}
	r.tier.DrainTranscodes()
}

// counterSum totals one per-replica counter across the fleet.
func (r *rig) counterSum(name string) int64 {
	var total int64
	for _, s := range r.tier.Sites {
		total += s.Metrics().Counter(name).Value()
	}
	return total
}

// serveLoopback serves h on an ephemeral 127.0.0.1 port — what httptest
// does, without importing a test package into cmd/benchcloud.
func serveLoopback(h http.Handler) (url string, srv *http.Server) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv = &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv
}

// newBrowser returns a cookie-keeping client, for the journeys that log in.
func newBrowser() *http.Client {
	jar, _ := cookiejar.New(nil)
	return &http.Client{Jar: jar}
}
