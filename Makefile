# Tier-1 verification gate: every PR must keep this green. The race
# detector is part of the gate so concurrency regressions in the serving
# path (web.Site, caches, metrics) are caught before merge; the allocation
# regression checks guard the conversion and HDFS range-read hot paths
# (alloc tests skip under -race, so they get a dedicated non-race run).

GO ?= go

.PHONY: tier1 vet build test race alloccheck chaosshort benchcheck chaos bench benchall trace scale edge elastic tenant

tier1: vet build race alloccheck chaosshort benchcheck

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

alloccheck:
	$(GO) test -run 'TestAlloc' ./internal/video/ ./internal/hdfs/ ./internal/trace/ ./internal/ingress/ ./internal/edge/ ./internal/tenant/ ./internal/web/

# Short-mode chaos soak: the seeded fault-injection run (host crash,
# DataNode crash, block corruption, tracker death mid-job) at reduced
# workload scale, plus the elastic flash-crowd-while-host-crashes case,
# under the race detector — part of the tier-1 gate.
chaosshort:
	$(GO) test -race -short -count=1 -run 'TestChaosSoak|TestElasticChaos' ./internal/core/

# The benchmark is its own module (bench/go.mod replaces videocloud => ../),
# so the root ./... patterns never compile it: vet and short-test it here so
# an internal/ API change that breaks bench/sut.go fails the gate instead of
# the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Full chaos soak with the recovery report: per-fault-class detection
# latency and MTTR land in BENCH_recovery.json for comparison across PRs.
# CHAOS_SEED=N reproduces a specific run.
chaos:
	CHAOS_BENCH_OUT=$(CURDIR)/BENCH_recovery.json \
		$(GO) test -race -count=1 -run 'TestChaosSoak' ./internal/core/
	@echo "wrote BENCH_recovery.json (seed $$(grep -m1 '"seed"' BENCH_recovery.json | tr -dc 0-9))"

# Serving-fleet scale sweep: closed-loop Zipf viewers against 1/4/8
# NIC-capped frontends plus the flash-crowd single-flight phase; the rows
# and flash report land in BENCH_scale.json for comparison across PRs.
scale:
	SCALE_BENCH_OUT=$(CURDIR)/BENCH_scale.json \
		$(GO) test -short -count=1 -run 'TestScaleBench' ./internal/experiments/
	@echo "wrote BENCH_scale.json ($$(grep -c '"throughput_x"' BENCH_scale.json) fleet rows + flash report)"

# Edge-cache delivery sweep: segmented ABR viewers against one persistent
# 4-frontend fleet plus the live-ingest phase; origin-offload rows and the
# live staleness report land in BENCH_edge.json for comparison across PRs.
edge:
	EDGE_BENCH_OUT=$(CURDIR)/BENCH_edge.json \
		$(GO) test -count=1 -run 'TestEdgeBench' ./internal/experiments/
	@echo "wrote BENCH_edge.json ($$(grep -c '"offload_pct"' BENCH_edge.json) sweep rows + live report)"

# Elasticity + rebalance soak (E16): a diurnal transcode wave with a 6x
# flash crowd and a mid-run host crash against the closed-loop elastic
# controller, then hot-host rebalancing; the windows, job/drain ledgers,
# and spread report land in BENCH_elastic.json for comparison across PRs.
elastic:
	ELASTIC_BENCH_OUT=$(CURDIR)/BENCH_elastic.json \
		$(GO) test -count=1 -run 'TestElasticBench' ./internal/experiments/
	@echo "wrote BENCH_elastic.json ($$(grep -c '"phase"' BENCH_elastic.json) windows + ledgers + spread report)"

# Multi-tenancy bench (E17): a bulk tenant floods the transcode intake
# while a victim tenant streams; the isolation ratio, throttle/quota
# counters, and the exact ledger reconciliation (ledger == database ==
# HDFS walk == reservation; vm-seconds == orchestrator state log) land in
# BENCH_tenant.json for comparison across PRs.
tenant:
	TENANT_BENCH_OUT=$(CURDIR)/BENCH_tenant.json \
		$(GO) test -count=1 -run 'TestTenantBench' ./internal/experiments/
	@echo "wrote BENCH_tenant.json ($$(grep -c '"name"' BENCH_tenant.json) tenant ledgers + isolation report)"

# Hot-path benchmarks: -cpu 1,4 shows how the conversion worker pool and
# the HDFS block fan-out scale with real cores; results land in
# BENCH_convert.json / BENCH_hdfs.json for regression comparison across
# PRs (BenchmarkReadRange's B/op is the chunked-checksum gate;
# BenchmarkStreamCached's B/op is the zero-copy block-cache gate).
bench:
	$(GO) test -json -run '^$$' -bench 'BenchmarkTranscoderConvert|BenchmarkFarm|BenchmarkSplit|BenchmarkMerge' \
		-benchmem -cpu 1,4 ./internal/video/ > BENCH_convert.json
	@echo "wrote BENCH_convert.json ($$(grep -c ns/op BENCH_convert.json) benchmark results)"
	$(GO) test -json -run '^$$' -bench 'BenchmarkReadRange|BenchmarkReadFile|BenchmarkWriteFile|BenchmarkStream' \
		-benchmem -cpu 1,4 ./internal/hdfs/ > BENCH_hdfs.json
	@echo "wrote BENCH_hdfs.json ($$(grep -c ns/op BENCH_hdfs.json) benchmark results)"

benchall:
	$(GO) test -bench . -benchtime 1x ./...

# Tracing-overhead benchmarks: disabled (must be 0 allocs/op), head-sampled,
# and always-on span paths plus the critical-path extractor; results land in
# BENCH_trace.json for regression comparison across PRs.
trace:
	$(GO) test -json -run '^$$' -bench 'BenchmarkTrace' -benchmem ./internal/trace/ > BENCH_trace.json
	@echo "wrote BENCH_trace.json ($$(grep -c ns/op BENCH_trace.json) benchmark results)"
