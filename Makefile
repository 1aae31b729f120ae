# Targets mirror .github/workflows/ci.yml — `make lint build test bench`
# locally is the same bar a PR has to clear.

GO ?= go

.PHONY: all build test fuzz soak bench bench-candidates bench-wire bench-scatter bench-allocs bench-live wire-parity load-smoke cluster-smoke lint vuln fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run 'TestPaperFiguresGolden' ./internal/eval/

# 30 s of fuzzing the ingest payload decoder below the frame CRC.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeIngestWire$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/webapi/

# 30 s churn loops under the race detector: scheduler submit/cancel/
# resume, and the live engine's concurrent ingest+search+compact.
soak:
	L2Q_SOAK=30s $(GO) test -race -run 'TestSchedulerSoak' ./internal/pipeline/
	L2Q_SOAK=30s $(GO) test -race -run 'TestLiveEngineSoak' ./internal/search/

# Full benchmark pass. For the sharded-engine before/after numbers only:
#   go test -run='^$$' -bench='HotSingleQuery|ConcurrentManyQueries' -benchtime=2s ./internal/search/
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./...

# Candidate-generation / domain-phase trajectory (the CI artifact's recipe).
bench-candidates:
	$(GO) test -run='^$$' -bench='BenchmarkCandidateStep|BenchmarkLearnDomain' -benchmem -benchtime=20x ./internal/core/

# Wire-codec trajectory: remote harvest over a bandwidth-modeled link,
# JSON vs negotiated binary+gzip (the BENCH_wire.json recipe).
bench-wire:
	$(GO) test -run='^$$' -bench='BenchmarkRemoteHarvestWire' -benchmem -benchtime=5x ./internal/webapi/

# Scatter-gather trajectory: a concurrent seeded-search batch against one
# node vs a 3-node doc-partitioned cluster, every response squeezed
# through a modeled 64 KB/s uplink per node (the BENCH_scatter.json
# recipe — the distributed-retrieval bar is ≥2x batch throughput).
bench-scatter:
	$(GO) test -run='^$$' -bench='BenchmarkScatterGather' -benchtime=3x ./internal/webapi/

# Allocation-regression gate: the hot-path alloc benchmarks against their
# pinned ceilings (0 allocs/op on the append paths). Writes
# BENCH_allocs.json, fails on any regression — same recipe as CI.
bench-allocs:
	./scripts/alloc_gate.sh BENCH_allocs.json

# Live-index trajectory: search throughput on a generational engine
# under a sustained ingest stream vs the same engine left frozen
# (BenchmarkLiveIngestSearch — the ≥70%-of-frozen bar), then l2qload
# mixed traffic against a live self-served server with ingest lag
# percentiles. Writes BENCH_live.json (the CI artifact).
bench-live:
	$(GO) test -run='^$$' -bench='BenchmarkLiveIngestSearch' -benchtime=2s ./internal/search/
	$(GO) run ./cmd/l2qload -duration 15s -workers 16 -ingest 200 -memtable 256 \
		-mix 'search=70,page=20,metrics=10' -out BENCH_live.json

# Sustained-traffic smoke: l2qload against an in-process server driven
# past its admission bound — verifies shed correctness (429 retryable
# envelope, no lost jobs, bounded tail) and writes BENCH_load.json.
load-smoke:
	$(GO) run ./cmd/l2qload -duration 30s -workers 32 -maxinflight 1 -assertshed -out BENCH_load.json

# Distributed-retrieval smoke: a real 3-node l2qserve fleet plus a
# coordinator as separate processes, driven over HTTP — search, page
# proxy, fan-out metrics, and node-kill failover with replicas=2.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Binary-wire differential parity + negotiation matrix under the race
# detector (the CI wire-parity step).
wire-parity:
	$(GO) test -race -count=1 -run 'TestDifferentialWireParity|TestNegotiationMatrix|TestMixedVersionFallback|TestStreamWireCodec' ./internal/webapi/

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build -o bin/l2qvet ./cmd/l2qvet
	$(GO) vet -vettool=$(CURDIR)/bin/l2qvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)); skipping — CI runs it"; \
	fi

# Known-vulnerability scan; graceful local skip, CI always runs it.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)); skipping — CI runs it"; \
	fi

# Pinned so local runs and the CI lint jobs agree.
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

fmt:
	gofmt -w .
