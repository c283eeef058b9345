package core

import (
	"net/http"

	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/videodb"
	"videocloud/internal/web"
)

// ServingTier is the SaaS layer as deployed: one or more web replicas over
// one shared fleet state (metadata store, search index, sessions, transcode
// queue and farm), behind an ingress balancer when there is more than one. It
// is the only place the repository assembles replicas + ingress + shards; New
// builds the stack's tier through it and the experiments stand theirs up the
// same way.
type ServingTier struct {
	// Sites lists every replica; Sites[0] is the primary the others were
	// built from. All share one fleet state, so reads and writes through any
	// of them are equivalent.
	Sites []*web.Site
	// Ingress is the fleet's load balancer, nil for a single frontend.
	Ingress *ingress.Balancer
}

// NewServingTier builds frontends replicas of the site cfg describes
// (frontends and shards below 2 mean one). shards > 1 replaces cfg.DB with
// a videodb.ShardedDB whose per-shard latency lands in reg; frontends > 1
// puts the replicas behind an ingress balancer whose routing counters land
// in reg too.
func NewServingTier(cfg web.Config, frontends, shards int, reg *metrics.Registry) (*ServingTier, error) {
	if shards > 1 {
		sdb := videodb.NewSharded(shards)
		sdb.SetMetrics(reg)
		cfg.DB = sdb
	}
	primary, err := web.New(cfg)
	if err != nil {
		return nil, err
	}
	t := &ServingTier{Sites: []*web.Site{primary}}
	for i := 1; i < frontends; i++ {
		rep, err := web.NewReplica(cfg, primary)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.Sites = append(t.Sites, rep)
	}
	if len(t.Sites) > 1 {
		backends := make([]http.Handler, len(t.Sites))
		for i, s := range t.Sites {
			backends[i] = s
		}
		t.Ingress = ingress.New(backends...)
		t.Ingress.SetMetrics(reg)
	}
	return t, nil
}

// Handler returns the tier as an http.Handler: the ingress balancer when a
// fleet is deployed, the lone site otherwise.
func (t *ServingTier) Handler() http.Handler {
	if t.Ingress != nil {
		return t.Ingress
	}
	return t.Sites[0]
}

// DrainTranscodes waits for every upload conversion the fleet has accepted to
// finish. The queue is the fleet's, so any replica waits for all of it.
func (t *ServingTier) DrainTranscodes() { t.Sites[0].DrainTranscodes() }

// Close shuts the fleet's transcode pool down after draining queued jobs.
func (t *ServingTier) Close() { t.Sites[0].Close() }

// TranscodeStats describes the fleet's farm: the queue, workers and node set
// once, the job counts summed over the replicas that accepted the jobs, and
// the wait, wall-time and speedup figures of the merge of every replica's
// histograms.
func (t *ServingTier) TranscodeStats() web.TranscodeStats { return web.TranscodeStatsOf(t.Sites...) }
