GO ?= go

.PHONY: all build vet fmt-check lint lint-diff lint-sarif test bench-test race race-all soak-smoke trace-smoke persist-smoke chaos-smoke bench bench-persist bench-smoke bench-load load-smoke fuzz fuzz-smoke clean tools report

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

# Incremental lint for PR branches: analyzes only the packages changed
# since LINT_BASE (default origin/main) plus their reverse-dependency
# cone — everything a change can possibly break, and nothing else.
LINT_BASE ?= origin/main
lint-diff:
	$(GO) build -o bin/enslint ./cmd/enslint
	./bin/enslint -diff $(LINT_BASE) ./...

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
# runs, byte-identical convergence with a fault-free crawl, and no
# goroutine leaks; plus the fault×route matrix through the assembled
# serve stack and the retry-budget outage-damping property.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestRetryBudgetDampsOutageE2E' -v ./cmd/enschaos/
	$(GO) test -race -count=1 -run 'TestChaosFaultRouteMatrix' -v ./internal/serve/

# Regenerates every table and figure of the paper's evaluation and archives
# the machine-readable results (name -> ns/op, allocs, custom metrics).
# The second pass re-runs the two hottest analyses at 100k domains (the
# PR 3 acceptance scale); its entries overwrite the 20k ones for those two
# names, and every entry carries a world_domains metric saying which world
# produced it.
bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt
	ENSBENCH_DOMAINS=100000 $(GO) test -bench='Figure8MisdirectedAmounts|Table1FeatureComparison' -benchmem . | tee -a bench_output.txt
	$(GO) run ./cmd/benchjson -o BENCH_PR3.json bench_output.txt

# Save/load wall-time, allocs/op, and on-disk bytes of dataset.bin at
# the default 20k world and the 100k acceptance scale. Sub-benchmark
# names carry the scale (save_binary_20k, load_binary_100k, ...), so both
# passes survive in BENCH_PR7.json.
bench-persist:
	$(GO) test -bench=BenchmarkDatasetPersist -benchmem . | tee bench_persist.txt
	ENSBENCH_DOMAINS=100000 $(GO) test -bench=BenchmarkDatasetPersist -benchmem -timeout 40m . | tee -a bench_persist.txt
	$(GO) run ./cmd/benchjson -o BENCH_PR7.json bench_persist.txt

# One-iteration smoke pass: exercises every benchmark body without the
# timing loop, cheap enough for CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Full load run: 30s of seeded open-loop traffic against a self-hosted
# 20k-domain world, archived as BENCH_LOAD.json next to the
# micro-benchmark archives (per-route p50/p99/p999, shed and error
# rates). The serve-path and keccak micro-benchmarks ride along so the
# archive holds latency AND allocs/request in one document; the
# allocation gate itself is TestServeHandlerAllocBudgets.
bench-load:
	$(GO) build -o bin/ ./cmd/ensload ./cmd/benchjson
	./bin/ensload -selfhost -domains 20000 -rps 300 -duration 30s -clients 8 | tee bench_load.txt
	$(GO) test -bench='^BenchmarkServe' -benchmem -benchtime=100x -run=^$$ . | tee -a bench_load.txt
	$(GO) test -bench='^BenchmarkSum256' -benchtime=100x -run=^$$ ./internal/keccak/ | tee -a bench_load.txt
	./bin/benchjson -o BENCH_LOAD.json bench_load.txt

# Load-generator smoke: a short self-hosted open-loop run must finish
# with bounded data-route tails, zero 5xx answers (sheds included),
# zero transport errors and a successful answer on every data route —
# proves the generator and the full serving stack end to end, and
# fails on a dead or resetting server.
load-smoke:
	$(GO) build -o bin/ensload ./cmd/ensload
	./bin/ensload -selfhost -domains 5000 -rps 200 -duration 30s -clients 8 -seed 8 -assert-p99 250ms -assert-no-5xx

fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/subgraph/
	$(GO) test -run '^$$' -fuzz=FuzzStreamingEqualsOneShot -fuzztime=30s ./internal/keccak/
	$(GO) test -run '^$$' -fuzz=FuzzParseTraceparent -fuzztime=30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeTxList -fuzztime=30s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzLoadSnapshot -fuzztime=30s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz=FuzzReplaySpool -fuzztime=30s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz=FuzzTxListQuery -fuzztime=30s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzAPIKey -fuzztime=30s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzParsePlan -fuzztime=30s ./internal/chaos/plan/
	$(GO) test -run '^$$' -fuzz=FuzzRPCRequest -fuzztime=30s ./internal/ethrpc/
	$(GO) test -run '^$$' -fuzz=FuzzOpenSeaQuery -fuzztime=30s ./internal/opensea/

# Short fuzz pass for CI: 10s per target is enough to catch shallow
# regressions in the parsers without stalling the pipeline.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/subgraph/
	$(GO) test -run '^$$' -fuzz=FuzzStreamingEqualsOneShot -fuzztime=10s ./internal/keccak/
	$(GO) test -run '^$$' -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeTxList -fuzztime=10s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzLoadSnapshot -fuzztime=10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz=FuzzReplaySpool -fuzztime=10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz=FuzzTxListQuery -fuzztime=10s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzAPIKey -fuzztime=10s ./internal/etherscan/
	$(GO) test -run '^$$' -fuzz=FuzzParsePlan -fuzztime=10s ./internal/chaos/plan/
	$(GO) test -run '^$$' -fuzz=FuzzRPCRequest -fuzztime=10s ./internal/ethrpc/
	$(GO) test -run '^$$' -fuzz=FuzzOpenSeaQuery -fuzztime=10s ./internal/opensea/

tools:
	$(GO) build -o bin/ ./cmd/...

# Full report over a freshly generated 20k-domain world.
report: tools
	./bin/ensanalyze -domains 20000

clean:
	rm -rf bin data
