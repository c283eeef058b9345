package web

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// Video status lifecycle. Uploads are inserted as "processing"; the farm
// conversion flips them to "ready" (streamable) or "failed". Rows written by
// older binaries carry no status and are treated as ready.
// Live channels (live.go) add two states: "live" while the channel is
// publishing segments, "ended" once it has finished (still watchable as
// segmented VOD).
const (
	statusProcessing = "processing"
	statusReady      = "ready"
	statusFailed     = "failed"
	statusLive       = "live"
	statusEnded      = "ended"
)

// defaultTranscodeWorkers and defaultTranscodeQueueCap size the pool when
// the config leaves TranscodeWorkers / TranscodeQueueCap zero. The queue is
// bounded: a full one refuses or blocks uploaders (see tenant.FairQueue)
// instead of dropping jobs or growing without bound.
const (
	defaultTranscodeWorkers  = 1
	defaultTranscodeQueueCap = 64
)

// transcodeJob is one upload waiting for farm conversion. ctx is the queue's
// base context re-parented with the uploading request's trace span, so the
// worker's spans stay causally linked to the request while the job's
// cancellation follows the queue lifetime, not the (long-gone) HTTP request.
type transcodeJob struct {
	// site is the replica that accepted the upload. Whichever worker pops the
	// job, that replica converts and publishes it: its registry, tracer and
	// rendition ladder.
	site     *Site
	ctx      context.Context
	videoID  int64
	data     []byte
	enqueued time.Time
	// adm carries the upload's quota reservations (tenant identity, byte
	// estimate, source seconds) across the async boundary — the context's
	// tenant value does not survive trace.Reparent.
	adm *admission
}

// transcodeQueue is the fleet's one bounded intake and the workers that drain
// it. Intake is a weighted start-time-fair queue: each tenant is a flow, so a
// bulk tenant's backlog interleaves with — instead of running ahead of —
// everyone else's, and a flow over its fair share of the fleet's bound is
// throttled with a typed error (429) rather than crowding the queue,
// whichever replicas its uploads arrived through.
type transcodeQueue struct {
	fq       *tenant.FairQueue[transcodeJob]
	baseCtx  context.Context // cancelled by Close after the drain
	cancel   context.CancelFunc
	mu       sync.Mutex     // guards closed, nworkers and admission into pending
	closed   bool           // set by Close; enqueueTranscode fails fast after
	nworkers int            // across every replica
	pending  sync.WaitGroup // jobs accepted but not yet published/failed
	workers  sync.WaitGroup // worker goroutines
	stop     sync.Once
}

func newTranscodeQueue(queueCap int) *transcodeQueue {
	if queueCap <= 0 {
		queueCap = defaultTranscodeQueueCap
	}
	q := &transcodeQueue{fq: tenant.NewFairQueue[transcodeJob](queueCap)}
	q.baseCtx, q.cancel = context.WithCancel(context.Background())
	return q
}

// startWorkers adds one replica's workers to the pool every upload goes
// through.
func (q *transcodeQueue) startWorkers(workers int) {
	if workers == 0 {
		workers = defaultTranscodeWorkers
	}
	q.mu.Lock()
	q.nworkers += workers
	q.mu.Unlock()
	for i := 0; i < workers; i++ {
		q.workers.Add(1)
		go func() {
			defer q.workers.Done()
			for {
				job, ok := q.fq.Pop()
				if !ok {
					return
				}
				job.site.runTranscodeJob(job)
			}
		}()
	}
}

// errSiteClosed rejects uploads that race Close (on any replica).
var errSiteClosed = errors.New("web: site is shut down, not accepting uploads")

// enqueueTranscode hands an upload to the pool. A tenant whose backlog has
// reached its fair share is refused with a tenant.ThrottleError; an
// under-share push into a full queue blocks — upload handlers slow down
// rather than the queue growing unboundedly — and the stall is counted in
// transcode_backpressure. After Close it returns errSiteClosed instead of
// sending: admission into the pending group happens under the queue mutex,
// so Close can wait out every accepted sender before it closes the queue.
func (s *Site) enqueueTranscode(ctx context.Context, job transcodeJob) error {
	q := s.state.queue
	job.site = s
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errSiteClosed
	}
	q.pending.Add(1)
	q.mu.Unlock()
	// The job runs on the queue's lifetime but keeps the request's span
	// linkage: the worker's spans land in the uploading request's trace.
	// Reparent drops context values, so the tenant identity (admitUpload
	// always names one) is re-attached explicitly: the worker's HDFS writes
	// must still attribute to the uploading tenant. The Hold keeps the trace
	// from flushing between the HTTP response and the worker dequeuing the
	// job; runTranscodeJob releases it.
	ten := job.adm.ten
	job.ctx = tenant.WithContext(trace.Reparent(q.baseCtx, ctx), ten, tenant.RoleWriter)
	trace.FromContext(job.ctx).Hold()
	if q.fq.Full() {
		s.reg.Counter("transcode_backpressure").Inc()
		trace.FromContext(ctx).Annotate("backpressure", "intake queue full")
	}
	// Every tenant, the default one included, is its own fair-queue flow
	// with the job's source seconds as its cost.
	if perr := q.fq.Push(ten.Name(), ten.Weight(), job.adm.srcSecs, job); perr != nil {
		trace.FromContext(job.ctx).Release()
		q.pending.Done()
		if errors.Is(perr, tenant.ErrThrottled) {
			ten.CountThrottle()
			s.reg.Counter("transcode_throttled").Inc()
			s.tenantCounter("throttles", ten.Name()).Inc()
			return perr
		}
		return errSiteClosed
	}
	s.reg.Counter("transcode_jobs").Inc()
	s.reg.Gauge("transcode_queue_depth").Set(int64(q.fq.Len()))
	return nil
}

func (s *Site) runTranscodeJob(job transcodeJob) {
	q := s.state.queue
	defer q.pending.Done()
	defer trace.FromContext(job.ctx).Release() // matches enqueueTranscode's Hold
	s.reg.Gauge("transcode_queue_depth").Set(int64(q.fq.Len()))
	wait := time.Since(job.enqueued)
	// The queue.job span crosses the async boundary: it is a child of the
	// uploading request's web.upload span (via the re-parented job context)
	// but starts on the worker goroutine after the queue wait.
	ctx, sp := s.tracer.StartSpan(job.ctx, "queue.job")
	if sp != nil {
		sp.AnnotateInt("video_id", job.videoID)
		sp.Annotate("queue_wait", wait.String())
	}
	s.reg.Histogram("transcode_wait_seconds").ObserveExemplar(wait.Seconds(), sp.TraceID())
	err := s.transcodeAndPublish(ctx, job.videoID, job.data, job.adm)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		// Asynchronous failure: the uploader already got their id back, so
		// the row stays, marked failed, and the watch page explains. Nothing
		// was stored, so every reservation goes back.
		job.adm.release()
		s.reg.Counter("transcode_failures").Inc()
		log.Printf("web: async conversion of video %d failed: %v", job.videoID, err)
		if uerr := s.db.Update("videos", job.videoID, videodb.Row{"status": statusFailed}); uerr != nil {
			log.Printf("web: marking video %d failed: %v", job.videoID, uerr)
		}
	}
}

// transcodeAndPublish converts an inserted upload to the target plus every
// rendition in ONE farm pass (single parse/split of the source), cuts each
// output into its delivery segments (delivery.go) — the only form a rendition
// is stored in — and publishes them as the row's objects with the row's
// renditions, segment index and status=ready (publish.go). A segment object
// is written as two parts, its own container header and the view of its GOP
// records in the farm output, so a rendition's records are copied only into
// their replicas.
func (s *Site) transcodeAndPublish(ctx context.Context, id int64, data []byte, adm *admission) error {
	results, err := s.convertPooled(ctx, data, s.specs)
	if err != nil {
		return fmt.Errorf("web: conversion failed: %w", err)
	}
	// Cut every rendition before writing anything, so the exact stored size
	// is known up front.
	var objects [][][]byte
	segs := 0
	for i, res := range results {
		// /stream rebuilds the container from the row's numbers alone; an
		// upload whose header does not add up (GOP count against play time)
		// is refused here rather than served askew.
		lay, serr := video.SegmentLayout(s.specs[i], res.Info.DurationSeconds, s.segSeconds)
		var objs [][][]byte
		if serr == nil {
			objs, serr = lay.Objects(res.Output)
		}
		if serr != nil {
			return fmt.Errorf("web: segmenting %s failed: %w", s.labels[i], serr)
		}
		objects = append(objects, objs...)
		segs = len(objs)
	}
	if err = s.publish(ctx, adm, id, objectNames(id, s.labels, 0, segs), objects, videodb.Row{
		"renditions": strings.Join(s.labels, ","), "status": statusReady,
		"seg_seconds": int64(s.segSeconds), "segments": int64(segs),
	}); err != nil {
		return err
	}
	res := results[0]
	s.reg.Counter("uploads").Inc()
	s.reg.Counter("upload_bytes").Add(int64(len(data)))
	s.reg.Histogram("conversion_seconds").Observe(res.Duration.Seconds())
	s.reg.Histogram("conversion_speedup").Observe(res.Speedup())
	s.reg.Histogram("conversion_wall_seconds").Observe(res.WallDuration.Seconds())
	return nil
}

// convertPooled runs a farm conversion over the pool's current node set.
// If the conversion is cancelled because a node was expelled mid-flight
// (drain-deadline expiry or a host crash), the work is requeued: it retries
// on a fresh node snapshot instead of failing the upload. The caller's own
// cancellation (site shutdown) still fails it.
func (s *Site) convertPooled(ctx context.Context, data []byte, specs []video.Spec) ([]*video.FarmResult, error) {
	for attempt := 0; ; attempt++ {
		cctx, farm, release := s.state.pool.acquire(ctx)
		results, err := farm.ConvertMultiContext(cctx, data, specs...)
		cause := context.Cause(cctx)
		release()
		if err == nil {
			return results, nil
		}
		if errors.Is(cause, errFarmNodeExpelled) && ctx.Err() == nil && attempt < 3 {
			s.reg.Counter("transcode_requeues").Inc()
			trace.FromContext(ctx).Annotate("requeue",
				fmt.Sprintf("farm node expelled mid-conversion (attempt %d)", attempt+1))
			continue
		}
		return nil, err
	}
}

// DrainTranscodes blocks until every job the fleet has accepted so far,
// through whichever replica, has been published or marked failed. Experiments
// and tests call it to observe the steady state.
func (s *Site) DrainTranscodes() { s.state.queue.pending.Wait() }

// Close shuts the fleet's transcode pool down after draining queued jobs.
// Uploads that race Close fail fast with an error instead of pushing into a
// closed queue: Close marks the queue closed first, waits for every already
// accepted job (including pushers still blocked on a full queue — workers
// keep draining until the fair queue closes), and only then closes it.
// It is idempotent, from one replica or from several.
func (s *Site) Close() {
	q := s.state.queue
	q.stop.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		q.pending.Wait()
		q.fq.Close()
		q.workers.Wait()
		q.cancel()
	})
}

// TranscodeStats summarises the conversion pool for dashboards
// (core.Status carries the fleet's).
type TranscodeStats struct {
	// Workers is the pool size, every replica's workers counted.
	Workers int
	// QueueCap is the fleet's intake bound; pushes past it are throttled or
	// block.
	QueueCap int
	// QueueDepth is the number of jobs waiting right now.
	QueueDepth int
	// Enqueued / Completed / Failed count the jobs the summarised replicas
	// accepted over their lifetime; Throttled counts their pushes refused by
	// the weighted-fair gate (the tenant was over its share and told to retry,
	// not blocked).
	Enqueued, Completed, Failed, Throttled int64
	// WaitSeconds is the mean time jobs spent queued; WaitP99Seconds is the
	// tail — the elasticity controller's latency-side gauge.
	WaitSeconds    float64
	WaitP99Seconds float64
	// ActiveConversions counts farm conversions executing right now;
	// Requeues counts conversions retried after a node was expelled
	// mid-flight (drain-deadline expiry or host crash).
	ActiveConversions int
	Requeues          int64
	// Nodes is the conversion pool's per-node view: in-flight count and
	// draining flag for each node currently registered.
	Nodes []FarmNodeStat
	// WallSeconds is the mean measured wall-clock conversion time.
	WallSeconds float64
	// ModelledSpeedup is the mean modelled farm speedup of conversions.
	ModelledSpeedup float64
}

// TranscodeStatsOf reports the farm's current state (Workers, QueueCap,
// QueueDepth, ActiveConversions, Nodes: the same from every replica) and the
// history of the jobs sites accepted: counters summed over their registries
// (uploads counts published jobs), the wait, wall-time and speedup figures
// read from the merge of their histograms — a mean weighted by observations,
// a p99 of the merged distribution. core.Status passes the fleet.
func TranscodeStatsOf(sites ...*Site) TranscodeStats {
	var st TranscodeStats
	var wait, wall, speedup metrics.Histogram
	for _, s := range sites {
		st.Enqueued += s.reg.Counter("transcode_jobs").Value()
		st.Completed += s.reg.Counter("uploads").Value()
		st.Failed += s.reg.Counter("transcode_failures").Value()
		st.Throttled += s.reg.Counter("transcode_throttled").Value()
		st.Requeues += s.reg.Counter("transcode_requeues").Value()
		wait.Merge(s.reg.Histogram("transcode_wait_seconds"))
		wall.Merge(s.reg.Histogram("conversion_wall_seconds"))
		speedup.Merge(s.reg.Histogram("conversion_speedup"))
	}
	q := sites[0].state.queue
	q.mu.Lock()
	st.Workers = q.nworkers
	q.mu.Unlock()
	st.QueueCap, st.QueueDepth = q.fq.Cap(), q.fq.Len()
	st.WaitSeconds, st.WaitP99Seconds = wait.Mean(), wait.Quantile(0.99)
	st.WallSeconds, st.ModelledSpeedup = wall.Mean(), speedup.Mean()
	st.Nodes, st.ActiveConversions = sites[0].state.pool.snapshot()
	return st
}

// TranscodeStats reports the farm and the jobs this replica accepted.
func (s *Site) TranscodeStats() TranscodeStats { return TranscodeStatsOf(s) }
