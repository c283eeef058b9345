# Tier-1 verification gate: every PR must keep this green. The race
# detector is part of the gate so concurrency regressions in the serving
# path (web.Site, caches, metrics) are caught before merge; the allocation
# regression checks guard the conversion and HDFS range-read hot paths
# (alloc tests skip under -race, so they get a dedicated non-race run).

GO ?= go

.PHONY: tier1 vet build test race alloccheck fuzzshort chaosshort benchcheck loc chaos bench benchall trace elastic tenant

tier1: vet build race alloccheck fuzzshort chaosshort benchcheck loc

# Besides go vet and gofmt: pages are written by internal/web/pages.go, and
# the template they replaced is a test oracle that must not drift back onto
# the request path, so no non-test file may import a template package.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@interpreted=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '"(html|text)/template"' .); \
		if [ -n "$$interpreted" ]; then \
		echo "non-test files import a template package:"; echo "$$interpreted"; exit 1; fi

# The cross-compiles keep both replica-memory files building: the anonymous
# mappings of internal/hdfs/replicamem_unix.go and the heap fallback beside it.
build:
	$(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

alloccheck:
	$(GO) test -run 'TestAlloc' ./internal/video/ ./internal/hdfs/ ./internal/trace/ ./internal/ingress/ ./internal/edge/ ./internal/tenant/ ./internal/web/ ./internal/metrics/ ./internal/videodb/

# Ten seconds of fuzzing the page writers against the html/template oracle
# they replaced (internal/web/pages_test.go): bodies must stay byte-identical.
# A failing input is written under internal/web/testdata/fuzz and then fails
# plain `go test` too. Then ten seconds of arbitrary methods and paths through
# the media routes' own path parsing against the ServeMux wildcard patterns it
# replaced (internal/web/mediaroute_test.go). Then ten seconds of arbitrary
# queries, Content-Types and bodies through the /upload receive against the
# ParseMultipartForm code it replaced (internal/web/upload_test.go): the same
# video bytes, text fields and answer. Then ten seconds of scripted reads, faults and reopens
# through the extent cache against the bytes written (internal/hdfs/fuzz_test.go):
# fills land in arrays eviction recycles, so a view that outlives its reference
# or a fill that keeps unverified bytes shows as a wrong byte here. Then ten
# seconds of the layout /stream trusts to rebuild a container from a row's
# numbers, ten of the segment objects publish writes as a header and a view
# of the rendition held to the copies Segments cuts, ten of the striped CRC-64
# a conversion seeds each GOP from held to hash/crc64, and ten of media
# responses held to http.ServeContent over arbitrary sizes, Range and If-Range
# headers. Then ten seconds of
# arbitrary float64 bit patterns and split points through histogram merges:
# the merged parts must equal the whole, bucket for bucket.
fuzzshort:
	$(GO) test -run '^$$' -fuzz FuzzPageMatchesTemplate -fuzztime 10s ./internal/web/
	$(GO) test -run '^$$' -fuzz FuzzMediaRoute -fuzztime 10s ./internal/web/
	$(GO) test -run '^$$' -fuzz FuzzUploadForm -fuzztime 10s ./internal/web/
	$(GO) test -run '^$$' -fuzz FuzzReaderReadAt -fuzztime 10s ./internal/hdfs/
	$(GO) test -run '^$$' -fuzz FuzzSegmentLayout -fuzztime 10s ./internal/video/
	$(GO) test -run '^$$' -fuzz FuzzSegmentObjects -fuzztime 10s ./internal/video/
	$(GO) test -run '^$$' -fuzz FuzzSignatureMatchesCRC64 -fuzztime 10s ./internal/video/
	$(GO) test -run '^$$' -fuzz FuzzServeMatchesServeContent -fuzztime 10s ./internal/stream/
	$(GO) test -run '^$$' -fuzz FuzzHistogramMerge -fuzztime 10s ./internal/metrics/

# Short-mode chaos soak: the seeded fault-injection run (host crash,
# DataNode crash, block corruption, tracker death mid-job) at reduced
# workload scale, plus the elastic flash-crowd-while-host-crashes case,
# under the race detector — part of the tier-1 gate. The HDFS repair tests
# ride along five times over: the healer is the one place in hdfs where a
# test outcome depends on goroutine timing, so a flaky convergence test shows
# up here rather than once a week. So do the orchestrator's placement tests:
# evacuation, consolidation, re-aim and rebalancing all go through one
# destination function and one evacuation pass, and the randomized soak checks
# their invariants; on virtual time five rounds cost a second or two. And the
# web tier's title lifecycle: whether a delete meets a row before or after its
# publisher does depends on worker/deleter interleaving. And the fleet state
# pages read: the recent list each change rebuilds under the row lock while
# home requests load it, the related lists a change drops while watch pages
# fill them, and the username map replicas fill. And the fleet's one
# transcode queue: which replica's worker pops a job, and whether an upload or
# Close reaches the queue first, depends on interleaving across replicas. And
# the histogram every latency figure is read from: concurrent observations,
# merges and snapshots must leave Count, Sum and the bucket totals exact. And
# pooled memory: whether a released replica mapping is reused under a reader
# depends on when the collector runs, whether a pinned extent's array goes back
# on its last Release or at eviction depends on which comes first, and under
# -race a released one is poisoned. So do the edge cache's segment entries,
# which pin those extents: whether an entry's last reference is dropped by an
# eviction, a purge or a response still writing it depends on interleaving.
# So do the farm outputs and upload bodies a publish gives back for reuse:
# under -race each is poisoned as it goes back, so a stored object that kept
# a view of one reads garbage once the next title is converted.
chaosshort:
	$(GO) test -race -short -count=1 -run 'TestChaosSoak|TestElasticChaos' ./internal/core/
	$(GO) test -race -count=5 -run 'TestHealer|TestRepair|TestDecommission|TestBalance|TestReplicaLifetimeSoak|TestExtentLifetimeSoak' ./internal/hdfs/
	$(GO) test -race -count=5 -run 'TestEvacuat|TestConsolidat|TestStuck|TestMigrationRescheduled|TestRebalanc|TestCloudSoak' ./internal/nebula/
	$(GO) test -race -count=5 -run 'TestTitleLifecycleSoak|TestLiveChannel|TestPartialStoreFailure|TestDelete|TestFleetFairShare|TestFarmPoolLifecycle|TestScaleDownMidBurst|TestUploadAfterClose|TestHomeListsOnlyPublished|TestRecentListRebuiltOncePerChange|TestRelatedMatchesUncached|TestRelatedFillRacingEditNeverServed|TestUsernameResolvedOncePerFleet|TestEdgeEntryLifetimeSoak|TestReusedBuffersKeepPublishedBytes' ./internal/web/
	$(GO) test -race -count=5 -run 'TestHistogramConcurrent' ./internal/metrics/

# The benchmark is its own module (bench/go.mod replaces videocloud => ../),
# so the root ./... patterns never compile it: vet and short-test it here so
# an internal/ API change that breaks bench/sut.go fails the gate instead of
# the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The numbers the ROADMAP's "least code" aim gates on: non-test Go lines
# outside the separate bench/ module, and options — the exported fields of
# internal/ Config and Options structs, as TestEveryOptionHasACaller counts
# them. Last in tier1 so a reviewer reads the before/after off two gate runs.
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1 | tr -dc 0-9)"
	@echo "options: $$($(GO) test -count=1 -run '^TestEveryOptionHasACaller$$' -v ./ | sed -n 's/.*options: \([0-9]*\).*/\1/p')"

# Full chaos soak with the recovery report: per-fault-class detection
# latency and MTTR land in BENCH_recovery.json for comparison across PRs.
# CHAOS_SEED=N reproduces a specific run.
chaos:
	CHAOS_BENCH_OUT=$(CURDIR)/BENCH_recovery.json \
		$(GO) test -race -count=1 -run 'TestChaosSoak' ./internal/core/
	@echo "wrote BENCH_recovery.json (seed $$(grep -m1 '"seed"' BENCH_recovery.json | tr -dc 0-9))"

# Elasticity + rebalance soak (E16): a diurnal transcode wave with a 6x
# flash crowd and a mid-run host crash against the closed-loop elastic
# controller, then hot-host rebalancing; the windows, job/drain ledgers,
# and spread report land in BENCH_elastic.json for comparison across PRs.
elastic:
	$(GO) run ./cmd/benchcloud -only E16 -json BENCH_elastic.json
	@echo "wrote BENCH_elastic.json ($$(grep -c '"phase"' BENCH_elastic.json) windows + ledgers + spread report)"

# Multi-tenancy bench (E17): a bulk tenant floods the transcode intake
# while a victim tenant streams; the isolation ratio, throttle/quota
# counters, and the exact ledger reconciliation (ledger == database ==
# HDFS walk == reservation; vm-seconds == orchestrator state log) land in
# BENCH_tenant.json for comparison across PRs.
tenant:
	$(GO) run ./cmd/benchcloud -only E17 -json BENCH_tenant.json
	@echo "wrote BENCH_tenant.json ($$(grep -c '"name"' BENCH_tenant.json) tenant ledgers + isolation report)"

# Hot-path benchmarks: -cpu 1,4 shows how the conversion worker pool scales
# with real cores; results land in BENCH_convert.json for regression
# comparison across PRs. (The HDFS read path is measured by the repo
# benchmark, BENCHMARK.json; its Go benchmarks still run under benchall.)
bench:
	$(GO) test -json -run '^$$' -bench 'BenchmarkTranscoderConvert|BenchmarkFarm|BenchmarkConvertMulti|BenchmarkSignature|BenchmarkFillPayload|BenchmarkSplit|BenchmarkMerge' \
		-benchmem -cpu 1,4 ./internal/video/ > BENCH_convert.json
	@echo "wrote BENCH_convert.json ($$(grep -c ns/op BENCH_convert.json) benchmark results)"

benchall:
	$(GO) test -bench . -benchtime 1x ./...

# Tracing-overhead benchmarks: disabled (must be 0 allocs/op), head-sampled,
# and always-on span paths plus the critical-path extractor; results land in
# BENCH_trace.json for regression comparison across PRs.
trace:
	$(GO) test -json -run '^$$' -bench 'BenchmarkTrace' -benchmem ./internal/trace/ > BENCH_trace.json
	@echo "wrote BENCH_trace.json ($$(grep -c ns/op BENCH_trace.json) benchmark results)"
