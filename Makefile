# Developer entry points. CI runs, in order: `make vet`, `make
# vet-arm64`, `make lint`, `make build`, `make census`, `make
# race-engines`, the race test suite with a coverage profile and `make
# cover-ratchet` on it, `make fuzz-smoke`, `make bench-smoke`, `make
# scaling-smoke` and `make examples-smoke`. `make verify` bundles vet,
# lint, build and race for a local run.

GO ?= go

# Per-target budget for fuzz-smoke runs.
FUZZTIME ?= 5s

# Coverage ratchet: `make cover-check` fails below this total (the
# measured baseline at the time the gate was added was 76.6%; the
# resilience layer raised it to 77.3%, the streaming-ingest layer to
# 79.4%, the mixed-precision and overload-control layers to 79.9%, and
# the benchmark's own tests plus the internal/rag assembler collapse
# to 81.2%, and one Report type in internal/experiments — with the
# well-covered internal/hnsw deleted — to 82.0%). Raise it when coverage
# improves; never lower it to make CI pass.
COVER_MIN ?= 81.0

.PHONY: verify build census test vet vet-arm64 lint race race-engines bench bench-search bench-smoke scaling-smoke examples-smoke fuzz-smoke cover cover-check cover-ratchet fmt

verify: vet lint build race

build:
	$(GO) build ./...

# Reachability census (tools/census): exported internal/ names nothing
# reaches, *Options/*Config fields nothing sets and unexported internal/
# fields nothing reads, minus the reasoned entries of
# tools/census/allowlist.txt. It type-checks the module and
# the standard library from source, so it is its own CI step rather
# than part of `go test ./...`.
census:
	$(GO) run ./tools/census

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Cross-vet for arm64: compile-checks every package (and its tests) for
# the other 64-bit target. The bit pins are verified on amd64 only; Go
# may fuse x*y+z into one FMA instruction on arm64, so there the schedule
# is compile-checked but not pinned.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

# Static analysis beyond vet when the tool is on PATH; a quiet no-op
# otherwise so verify works in hermetic containers without network
# access to install it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The parallel engines and the pruned build go first, uncached: a data
# race in des.Group, in the fleet's lanes — which write disjoint records
# of one shared array while, under least-loaded, every worker reads the
# next arrivals' to route them and the notices its peers published at
# the round's barrier — or in the per-point k-means bounds written from
# parallel.For chunks should fail in seconds, not behind the whole sweep.
# The least-loaded differential tests run 2 and 4 workers. One shared
# rag.Decision also serves two runs at once: no run may write it; and
# every lane of a fleet reads its run's one price table.
race: race-engines
	$(GO) test -race ./...

race-engines:
	$(GO) test -race -count=1 ./internal/des
	$(GO) test -race -count=1 ./internal/serve -run 'Exchange'
	$(GO) test -race -count=1 ./internal/rag -run 'Sharded|LinkFree|FleetWrites|LeastLoaded|NoticeAt|LoadIndex|OneDecisionServesManyRuns|SharePriceTable'
	$(GO) test -race -count=1 ./internal/kmeans ./internal/pq ./internal/ivf

# Full micro-benchmark sweep (one iteration each; sanity, not timing).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Timed search-kernel and build-layer benchmarks (benchstat-able); the
# repository's performance measurement is `bash benchmark/run.sh`.
bench-search:
	$(GO) test -run=NONE -bench='Search|DotRows|KMeansAssign|KMeansTrain|DatasetBuild' -benchmem -benchtime=2s ./...

# One-iteration compile-and-run of the search kernel, build-layer
# (blocked dot kernel, k-means assignment and training, dataset build),
# decision-path (Eq. 2 integral, Algorithm 1 on ORCAS-1K and Wiki-All,
# joint allocator),
# retrieval-engine (each engine configuration alone), single-node serve
# (one sweep-scale Serve call), fleet (round-robin lanes alone,
# least-loaded lanes in rounds), fleet-sized summary and resilient
# fault-storm benchmarks, then
# every registered experiment at quick scale through the CLI's CSV path
# (one link step: each artifact's runner, its report, and the export of
# every table); CI runs this so none of them can rot.
bench-smoke:
	$(GO) test -run=NONE -bench='Search|DotRows|KMeansAssign|KMeansTrain|DatasetBuild|ExpectedMin|LatencyBounded|JointAllocate|RetrievalEngines|Serve$$|FleetRoundRobin|FleetLeastLoaded|Summarize|ResilientStorm|DESEventLoop' -benchtime=1x ./...
	$(GO) run ./cmd/vliterag run -exp all -quick -csv >/dev/null

# Wall-clock scaling verdict for Workers: on a 16-replica round-robin
# run (the link-free fleet), every core together must not be more than
# 15% slower than one worker (any host with >=2 CPUs), and must be >=1.5x
# faster on hosts with >=4. The least-loaded ratio (lanes in rounds) and
# the least-loaded lanes-to-exchange wall ratio are logged beside it and
# gate nothing. Needs a quiet host, so it is its own
# target rather than part of `race`/`test`.
scaling-smoke:
	SCALING_SMOKE=1 $(GO) test ./internal/rag -run TestWorkerScalingSmoke -v -count=1

# Run every example binary in quick mode. `go test` only compiles the
# examples; this actually executes them, so their output paths cannot
# rot. CI runs it.
examples-smoke:
	@set -e; for d in ./examples/*/; do \
		echo "==> $$d"; \
		$(GO) run "$$d" -quick; \
	done

# Run each native fuzz target briefly (seed corpora are checked in
# under testdata/fuzz, or added in the target with f.Add). CI runs this so the targets cannot rot; local
# deep fuzzing just raises FUZZTIME.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzScanCodesIDs$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanCodesIDsMasked$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanSQIDs$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanSQIDsMasked$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzTopK$$' -fuzztime=$(FUZZTIME) ./internal/vecmath
	$(GO) test -run=NONE -fuzz='^FuzzDotRows$$' -fuzztime=$(FUZZTIME) ./internal/vecmath
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=NONE -fuzz='^FuzzQuantiles$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzExpectedMin$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzMinBelow$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzCompletionOrder$$' -fuzztime=$(FUZZTIME) ./internal/llm

# Per-package coverage plus the total.
cover:
	$(GO) test -cover -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1

# Ratcheting coverage gate: fail when total statement coverage drops
# below COVER_MIN. cover-ratchet only inspects an existing cover.out,
# so CI can produce the profile from its (race) test run instead of
# running the suite twice.
cover-check: cover cover-ratchet

cover-ratchet:
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: coverage %.1f%% below ratchet %.1f%%\n", t, min; exit 1 } \
		printf "coverage %.1f%% >= ratchet %.1f%%\n", t, min }'

fmt:
	gofmt -l -w .
