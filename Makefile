# Convenience targets for the acedo reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-snapshot bench-record bench-compare replay-check tables vet fmt fmt-check cover fuzz chaos doclint server-smoke optimize-smoke crash-smoke cluster-smoke ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Fail when any file needs reformatting (CI gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test: build vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One testing.B benchmark per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Schema-stable JSON snapshot of the full suite — the per-commit
# perf/energy trajectory artifact (BENCH_<commit>.json).
bench-snapshot:
	$(GO) run ./cmd/acetables -json BENCH_$$(git rev-parse --short HEAD).json -q

# The committed wall-clock perf records future runs diff against.
# benchjson -compare gates against the best value per benchmark across
# all listed records (the trajectory's high-water mark). BENCH_pr3 is
# the last direct-execution record; BENCH_pr4 adds the record-once/
# replay-many fast path; BENCH_pr8 adds the summarized-block replay
# engine (packed op stream + fused charges), halving suite replay
# time again and adding the BenchmarkReplay* single-trace records;
# BENCH_pr9 adds the direct summary recorder and the BenchmarkRecord*
# record-overhead pair. Records may list benchmarks whose code has
# since been deleted; benchjson's fixed retired list reports those as
# "retired" instead of failing them as missing.
BENCH_BASE ?= BENCH_pr3.json BENCH_pr4.json BENCH_pr8.json BENCH_pr9.json

# Diffing a fresh run against multiple old records only works with the
# bundled comparator; benchstat reconstruction uses the newest one.
BENCH_NEWEST ?= BENCH_pr9.json

# Re-measure the hot benchmarks and write a fresh perf record
# (BENCH_<commit>.json) for check-in at perf-sensitive PRs.
bench-record:
	$(GO) test -run NONE -bench 'BenchmarkEngine$$|BenchmarkSuite$$|BenchmarkReplay|BenchmarkRecord' -count=5 . \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(git rev-parse --short HEAD).json

# Diff current throughput against the committed records ($(BENCH_BASE)).
# Uses benchstat when installed; otherwise the bundled benchjson
# comparator prints the delta table and fails on a >15% regression.
bench-compare:
	$(GO) test -run NONE -bench 'BenchmarkEngine$$|BenchmarkSuite$$|BenchmarkReplay|BenchmarkRecord' -count=5 . > /tmp/acedo_bench_new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchjson -raw $(BENCH_NEWEST) > /tmp/acedo_bench_base.txt; \
		benchstat /tmp/acedo_bench_base.txt /tmp/acedo_bench_new.txt; \
	else \
		$(GO) run ./cmd/benchjson -o /tmp/acedo_bench_new.json /tmp/acedo_bench_new.txt; \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) /tmp/acedo_bench_new.json; \
	fi

# Differential gate for the record-once/replay-many fast path: the
# suite's schema-stable snapshot must be byte-identical whether the
# schemes replay a recorded trace or execute directly, with and
# without a deterministic fault plan, and so must the phase-detector
# comparison and three-CU tables (scripts/replay_check.sh).
replay-check:
	sh scripts/replay_check.sh

# Regenerate every table and figure (21 simulations, ~9.4 s).
tables:
	$(GO) run ./cmd/acetables

tables-threecu:
	$(GO) run ./cmd/acetables -threecu

tables-detectors:
	$(GO) run ./cmd/acetables -detectors

cover:
	$(GO) test -cover ./internal/...

# Short fuzzing sessions for the differential targets.
fuzz:
	$(GO) test -fuzz=FuzzEngineVsReference -fuzztime=20s ./internal/vm
	$(GO) test -fuzz=FuzzEngineUnderManagement -fuzztime=20s ./internal/vm
	$(GO) test -fuzz=FuzzCacheVsReference -fuzztime=20s ./internal/cache
	$(GO) test -fuzz=FuzzAccessWords -fuzztime=20s ./internal/cache
	$(GO) test -fuzz=FuzzDetector -fuzztime=20s ./internal/bbv
	$(GO) test -fuzz=FuzzRecorderCalls -fuzztime=20s ./internal/rtrace

# Fault-injection and watchdog tests (see DESIGN.md §8), under the
# race detector: gate rejection/deferral, resize stalls, sample
# drop/duplication, BBV corruption, panic isolation, deadlines, and
# the oscillation watchdogs.
chaos:
	$(GO) test -race -run Chaos -count=1 ./...

# Documentation hygiene (CI docs-lint job): vet, zero undocumented
# exported identifiers anywhere in the module, and no dead relative
# links in the markdown docs.
doclint: vet
	$(GO) run ./cmd/doclint . $(wildcard internal/*) internal/server/store internal/server/cluster $(wildcard cmd/*)
	$(GO) run ./cmd/doclint -md README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/API.md docs/OPERATIONS.md

# Boot acelabd, drive it with acelab, and diff the service's result
# against `acetables -json` byte-for-byte; then check the client's 429
# backpressure retry loop against a saturated daemon (CI server-smoke
# job).
server-smoke:
	sh scripts/server_smoke.sh

# Drive a tiny seeded GA configuration search through two independent
# daemons and require byte-identical results plus a cache hit on
# resubmission (CI server-smoke job).
optimize-smoke:
	sh scripts/optimize_smoke.sh

# Kill -9 a crash-safe acelabd (-data-dir) mid-job and restart it on
# the same data dir: the journal must requeue the interrupted job and
# the resubmitted finished spec must hit the recovered disk store
# byte-identically (CI server-smoke job).
crash-smoke:
	sh scripts/crash_smoke.sh

# Boot a 3-node acelabd ring and exercise the cluster contract: routed
# results byte-identical to acetables -json, cluster-wide cache hits
# from any node, JSON-array fan-out, and an injected peer partition
# degrading to local execution (CI cluster-smoke job).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Everything the CI workflow runs, locally. bench/ is a separate
# module the root `go test ./...` never reaches, so it is vetted and
# tested on its own. The race run's explicit timeout covers 2-core
# hosts, where internal/rtrace and internal/experiment each run past
# go test's 10-minute default.
ci: build vet fmt-check doclint
	$(GO) test -race -timeout 40m ./...
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) test -fuzz=FuzzEngineVsReference -fuzztime=10s -run=^$$ ./internal/vm
	$(GO) test -fuzz=FuzzEngineUnderManagement -fuzztime=10s -run=^$$ ./internal/vm
	$(GO) test -fuzz=FuzzCacheVsReference -fuzztime=10s -run=^$$ ./internal/cache
	$(GO) test -fuzz=FuzzAccessWords -fuzztime=10s -run=^$$ ./internal/cache
	$(GO) test -fuzz=FuzzDetector -fuzztime=10s -run=^$$ ./internal/bbv
	$(GO) test -fuzz=FuzzRecorderCalls -fuzztime=10s -run=^$$ ./internal/rtrace
	$(MAKE) chaos
	$(MAKE) replay-check
	$(MAKE) server-smoke
	$(MAKE) optimize-smoke
	$(MAKE) crash-smoke
	$(MAKE) cluster-smoke

clean:
	$(GO) clean ./...
