GO ?= go

.PHONY: all build vet fmt-check lint lint-sarif test bench-test race race-all soak-smoke trace-smoke persist-smoke chaos-smoke bench bench-persist bench-smoke load-smoke fuzz fuzz-smoke clean tools report

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing every tracked Go file outside vendor/ that gofmt would
# rewrite.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v ^vendor/ | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Runs the project's custom go/analysis suite (internal/lint) on top of
# go vet: the PR 4 syntactic set (detrand, maporder, iodiscipline,
# floatfold, droppederr), the control-flow set (ctxflow, mutexguard,
# hotpathalloc, boundedres), and the upstream lostcancel + copylocks
# pair. The binary re-executes `go vet -vettool=<self>`, so it needs no
# build-graph machinery of its own and works offline against the
# vendored golang.org/x/tools (see go.mod).
lint:
	$(GO) build -o bin/enslint ./cmd/enslint
	./bin/enslint ./...

# Full-suite run that also archives the findings as SARIF for code
# scanning UIs.
lint-sarif:
	$(GO) build -o bin/enslint ./cmd/enslint
	./bin/enslint -sarif lint.sarif ./...

test:
	$(GO) test ./...

# The benchmark under bench/ is a module of its own, so the root
# `go test ./...` skips it. Its tests include a 1k-domain smoke run of
# every workload, which byte-checks the serve answers against the
# crawl's, and the BENCHMARK.json validation.
bench-test:
	cd bench && $(GO) test ./...

# Race-checks the concurrency-heavy packages (metrics hot paths, the
# crawl machinery, the resumable build, the parallel analysis engine —
# including the workers=1-vs-8 golden tests); race-all covers the module.
race:
	$(GO) test -race ./internal/obs/... ./internal/crawler/... ./internal/dataset/... ./internal/par/... ./internal/core/... ./internal/world/...

race-all:
	$(GO) test -race -short ./...

# Overload soak drill under the race detector: 8 concurrent crawlers
# against the admission gate + quotas + chaos, byte-identical
# convergence, bounded /healthz latency, goroutine-leak checks.
soak-smoke:
	$(GO) test -race -count=1 -run 'TestSoak' -v .

# Tracing attribution drill: every rejection class (gate shed, quota
# denial, chaos fault, breaker-open) must yield a stored trace naming
# the responsible layer, retrievable via /debug/traces/{id}; plus the
# determinism contract (traced 8-worker crawl byte-identical to an
# untraced serial one) and the zero-alloc disabled path.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestTraceAttribution|TestTracingDoesNotChangeFingerprint' -v .
	$(GO) test -count=1 -run 'TestDisabledTracingAllocates' -v ./internal/trace/

# Persistence durability drill: dataset.bin save->load->save
# byte-stability, every-byte and strided truncation sweeps, crash-atomic
# save (no temp residue, old data survives failed writes), and the resume
# spool's contract under the race detector: torn records at every byte
# re-crawled, a corrupt middle record refused, a crash after an append
# not repeated, disk faults typed or healed, the spool header rules and
# the spool fuzz seeds.
persist-smoke:
	$(GO) test -race -count=1 -run 'TestBinary|TestSave|TestLoad|TestWriteAtomic|TestResume|ReplaySpool' -v ./internal/dataset/
	$(GO) test -race -count=1 ./internal/dataset/codec/

# Chaos-campaign drill under the race detector: the built-in
# blackout-recovery campaign run twice through the full pipeline
# (enschaos), asserting per-phase SLOs, identical phase reports across
# runs, byte-identical convergence with the fault-free dataset built
# in-process, and no goroutine leaks; plus the fault×route matrix
# through the assembled serve stack and the retry-budget
# outage-damping property.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestRetryBudgetDampsOutageE2E' -v ./cmd/enschaos/
	$(GO) test -race -count=1 -run 'TestChaosFaultRouteMatrix' -v ./internal/serve/

# Regenerates every table and figure of the paper's evaluation into
# bench_output.txt (name, ns/op, allocs, custom metrics per line).
# The second pass re-runs the two hottest analyses at 100k domains (the
# PR 3 acceptance scale); its entries overwrite the 20k ones for those two
# names, and every entry carries a world_domains metric saying which world
# produced it.
bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt
	ENSBENCH_DOMAINS=100000 $(GO) test -bench='Figure8MisdirectedAmounts|Table1FeatureComparison' -benchmem . | tee -a bench_output.txt

# Save/load wall-time, allocs/op, and on-disk bytes of dataset.bin at
# the default 20k world and the 100k acceptance scale. Sub-benchmark
# names carry the scale (save_binary_20k, load_binary_100k, ...), so both
# passes stay distinguishable in bench_persist.txt.
bench-persist:
	$(GO) test -bench=BenchmarkDatasetPersist -benchmem . | tee bench_persist.txt
	ENSBENCH_DOMAINS=100000 $(GO) test -bench=BenchmarkDatasetPersist -benchmem -timeout 40m . | tee -a bench_persist.txt

# One-iteration smoke pass: exercises every benchmark body without the
# timing loop, cheap enough for CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Load gate on the program's own callers (load_e2e_test.go): two
# concurrent crawls of a 5k-domain world, each with the §3.1
# eth_getLogs fetch, through serve.New while /healthz is polled every
# 10 ms. Fails on any transport error or 5xx answer (sheds included), a
# data route with no 2xx answer or a client p99 over 250 ms, a crawl
# whose fingerprint differs from FromWorld's, or fewer than 7,200
# requests; TestLoadGateFails shows each of the tally's checks failing.
load-smoke:
	$(GO) test -count=1 -run 'TestLoadSmoke|TestLoadGateFails' -v .

# Every fuzz target, as Name@package; fuzz runs each for FUZZTIME.
FUZZTIME ?= 30s
FUZZ_TARGETS := \
	FuzzParse@./internal/subgraph/ \
	FuzzStreamingEqualsOneShot@./internal/keccak/ \
	FuzzParseTraceparent@./internal/trace/ \
	FuzzDecodeTxList@./internal/etherscan/ \
	FuzzLoadSnapshot@./internal/dataset/ \
	FuzzReplaySpool@./internal/dataset/ \
	FuzzTxListQuery@./internal/etherscan/ \
	FuzzAPIKey@./internal/etherscan/ \
	FuzzParsePlan@./internal/chaos/plan/ \
	FuzzRPCRequest@./internal/ethrpc/ \
	FuzzOpenSeaQuery@./internal/opensea/ \
	FuzzParseWei@./internal/ethtypes/ \
	FuzzPageCache@./internal/pagecache/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz: $${t%@*} in $${t#*@} for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz=$${t%@*} -fuzztime=$(FUZZTIME) $${t#*@}; \
	done

# Short fuzz pass for CI: the same targets at 10s each is enough to
# catch shallow regressions in the parsers without stalling the
# pipeline.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

tools:
	$(GO) build -o bin/ ./cmd/...

# Full report over a freshly generated 20k-domain world.
report: tools
	./bin/ensanalyze -domains 20000

clean:
	rm -rf bin data
