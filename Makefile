# Developer entry points. CI runs, in order: `make vet`, `make
# vet-arm64`, `make test-386`, `make fma-arm64`, `make lint`, `make build`,
# `make census`, `make race-engines`, the race test suite with a coverage
# profile and `make cover-ratchet` on it, `make fuzz-smoke`, `make
# bench-smoke` and `make scaling-smoke`. The race test suite also runs the
# public API's godoc Examples and checks their printed output. `make
# verify` bundles vet, lint, build and race for a local run; `make
# rebaseline` is the one way to move a golden.

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

.PHONY: verify build census test vet vet-arm64 test-386 rebaseline fma-arm64 lint race race-engines bench bench-search bench-smoke scaling-smoke fuzz-smoke cover cover-check cover-ratchet fmt

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
# the other 64-bit target. Go may fuse x*y+z into one FMA instruction on
# arm64, which rounds once where amd64 rounds twice, so there the
# schedule is compile-checked but not pinned (fma-arm64 pins the
# kernels' part of it).
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

# The pins on a second instruction set that runs on an amd64 host:
# 386 has a 32-bit int, no FMA, pure-Go math.Exp and math.Log and the Go
# DotRows loop arm64 runs, and every golden must hold there bit for bit.
PKGS_386 = . ./internal/experiments ./internal/rag ./internal/ivf ./internal/retrieval ./internal/rng ./internal/stats ./internal/pq ./internal/vecmath
test-386:
	GOARCH=386 $(GO) test $(PKGS_386)

# Every pin is a test matching PINS that compares its output with
# testdata/<name>.golden through internal/golden, which on a mismatch
# writes <name>.golden.got beside the golden and prints each changed
# cell. rebaseline runs the pins, moves every .got over its golden and
# runs them again, which must pass. It does not move the godoc
# Examples' `// Output:` or benchmark/baseline.json.
PINS = Golden|Pinned|ServedDecision
rebaseline:
	@find . -name '*.golden.got' -delete
	-$(GO) test -count=1 -run '$(PINS)' ./...
	@find . -name '*.golden.got' | while read -r got; do mv "$$got" "$${got%.got}"; echo "rebaselined $${got%.got}"; done
	$(GO) test -count=1 -run '$(PINS)' ./...

# No fused multiply-add in the search kernels on arm64: compiles pq and
# vecmath for arm64 with the assembly listing and fails on any fused
# instruction, so their products round as on amd64. -a forces the
# compile: a warm build cache would print no listing and pass unseen.
FMA_PKGS = ./internal/pq ./internal/vecmath
fma-arm64:
	@listing=$$(GOARCH=arm64 $(GO) build -a -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$listing"; exit 1; }; \
	if echo "$$listing" | grep -E '\bF(N?)M(ADD|SUB)[SD]\b'; then \
		echo "FAIL: fused multiply-add above in $(FMA_PKGS) on arm64; wrap the product in float32(...)"; exit 1; \
	fi; \
	echo "no fused multiply-add in $(FMA_PKGS) on arm64"

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
# rag.Decision also serves two runs at once: no run may write it;
# every lane of a fleet reads its run's one price table; the
# scheduler-bound test runs a two-replica lineup on two workers' lanes;
# and a fleet's run and replica summaries read the array on its workers.
race: race-engines
	$(GO) test -race ./...

race-engines:
	$(GO) test -race -count=1 ./internal/des
	$(GO) test -race -count=1 ./internal/serve -run 'Exchange'
	$(GO) test -race -count=1 ./internal/rag -run 'Sharded|LinkFree|FleetWrites|FleetSummaries|LeastLoaded|NoticeAt|LoadIndex|OneDecisionServesManyRuns|SharePriceTable|MeteredSectionBounded'
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
# least-loaded lanes in rounds), summary (fleet-sized, one replica's
# stride-64 share and a cold summarizer: `Summarize` selects all three)
# and resilient fault-storm benchmarks, then
# one cheap experiment through the CLI's `run -csv` path, so the
# command stays linked and runs. Every registered experiment already
# runs through the same public CSV export in `go test`
# (TestRunExperimentCSV, TestCSVExports). CI runs this so none of them
# can rot.
bench-smoke:
	$(GO) test -run=NONE -bench='Search|DotRows|KMeansAssign|KMeansTrain|DatasetBuild|ExpectedMin|LatencyBounded|JointAllocate|RetrievalEngines|Serve$$|FleetRoundRobin|FleetLeastLoaded|Summarize|ResilientStorm|DESEventLoop' -benchtime=1x ./...
	$(GO) run ./cmd/vliterag run -exp tab1 -quick -csv >/dev/null

# Wall-clock scaling verdict for Workers: on a 16-replica round-robin
# run (the link-free fleet), every core together must not be more than
# 15% slower than one worker (any host with >=2 CPUs), and must be >=1.5x
# faster on hosts with >=4. The least-loaded ratio (lanes in rounds) and
# the least-loaded lanes-to-exchange wall ratio are logged beside it and
# gate nothing. Needs a quiet host, so it is its own
# target rather than part of `race`/`test`.
scaling-smoke:
	SCALING_SMOKE=1 $(GO) test ./internal/rag -run TestWorkerScalingSmoke -v -count=1

# Run each native fuzz target briefly (seed corpora are checked in
# under testdata/fuzz, or added in the target with f.Add). CI runs this so the targets cannot rot; local
# deep fuzzing just raises FUZZTIME.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzScanCodesIDs$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanCodesIDsMasked$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanSQIDs$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzScanSQIDsMasked$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzLowerBound$$' -fuzztime=$(FUZZTIME) ./internal/pq
	$(GO) test -run=NONE -fuzz='^FuzzTopK$$' -fuzztime=$(FUZZTIME) ./internal/vecmath
	$(GO) test -run=NONE -fuzz='^FuzzDotRows$$' -fuzztime=$(FUZZTIME) ./internal/vecmath
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=NONE -fuzz='^FuzzQuantiles$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzSummarize$$' -fuzztime=$(FUZZTIME) ./internal/metrics
	$(GO) test -run=NONE -fuzz='^FuzzExpectedMin$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzMinBelow$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=NONE -fuzz='^FuzzCompletionOrder$$' -fuzztime=$(FUZZTIME) ./internal/llm
	$(GO) test -run=NONE -fuzz='^FuzzQueue$$' -fuzztime=$(FUZZTIME) ./internal/des
	$(GO) test -run=NONE -fuzz='^FuzzResilientRecords$$' -fuzztime=$(FUZZTIME) ./internal/serve

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
