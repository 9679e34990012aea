# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

# The committed benchmark snapshot for this PR sequence; bump per PR.
BENCH_JSON ?= BENCH_8.json
# bench-diff compares the previous PR's snapshot against this one.
BENCH_OLD ?= BENCH_7.json
BENCH_NEW ?= $(BENCH_JSON)

.PHONY: all build vet fmt-check test race race-core alloc-check chaos fuzz bench bench-engine bench-store bench-smoke bench-selftest bench-json bench-diff docs-check run-daemon loadtest-smoke loadgrid

all: vet fmt-check build test docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (CI runs the same check).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Just the concurrency-hot tiers (shared plans, pooled executor
# states, sharded store with parallel query fan-out, WAL group
# commit, the trace ring under concurrent writers and the traced
# HTTP read path) plus the theory packages the semantic planner now
# calls at compile time (containment/jauto/schema/datalog) — the
# fast-failing prefix of the full race run. The metamorphic
# containment harness in internal/store rides along here, so its
# ≥1000 pairs per front end run race-clean on every push.
race-core:
	$(GO) test -race ./internal/qir ./internal/engine ./internal/store ./internal/trace ./internal/httpapi ./internal/containment ./internal/jauto ./internal/schema ./internal/datalog

# Allocation-regression gate: the AllocsPerRun tests pinning the
# pooled executor's steady state (plan-cache-hit Match/Eval at zero
# allocations), the untraced compile path — including cache-hit
# compiles with the semantic pass enabled — the disabled/pooled
# trace recorder, and the store's steady-state segment probe. The
# theory packages are included so any future alloc pins there are
# picked up without editing this target.
# -count=1 defeats the test cache so the numbers are measured, not
# replayed.
alloc-check:
	$(GO) test -run 'ZeroAllocs|AllocsBounded' -count=1 ./internal/qir ./internal/engine ./internal/store ./internal/trace ./internal/containment ./internal/jauto ./internal/schema ./internal/datalog

# The robustness suite: fault-injected durability (a FaultFS injects
# ENOSPC/EIO/short writes under the WAL and snapshotter; shards must
# degrade read-only, keep serving oracle-correct reads, survive a
# crash without corruption and self-heal once the fault lifts),
# cooperative query cancellation, Close racing in-flight queries, and
# the HTTP half (429 admission sheds, 503 degraded/drain contract,
# 504 timeouts). Under -race — the close/cancel scenarios are
# concurrency tests first. -count=1: faults must be injected, not
# replayed from the test cache.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Cancelled|Deadline|HonoursContext|BackgroundContext|LiveContext|CloseRaces|QueryGate|QueryTimeout|Drain|Degraded|BulkByteGate' ./internal/store ./internal/httpapi

# Short native-fuzz passes: the engine's plan-cache key path, the
# witness-soundness targets for the semantic planner's decision
# procedures (a SAT witness must satisfy the query through the real
# engine; containment refutations must separate the pair under the
# production evaluator), and the segment posting-list codec (round-
# trip fidelity; hostile bytes must error, never panic or over-read).
fuzz:
	$(GO) test ./internal/engine/ -run FuzzPlanCache -fuzz FuzzPlanCache -fuzztime 20s
	$(GO) test ./internal/jauto/ -run FuzzJNLSat -fuzz FuzzJNLSat -fuzztime 30s
	$(GO) test ./internal/containment/ -run FuzzContainment -fuzz FuzzContainment -fuzztime 30s
	$(GO) test ./internal/store/ -run FuzzPostingsCodec -fuzz FuzzPostingsCodec -fuzztime 20s

# The full complexity-reproduction benchmark suite (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 2x ./...

# Just the engine layer: plan-cache hit/miss, zero-alloc evaluation
# and the NDJSON readers.
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine' ./...

# The storage tier: indexed query vs full scan at 10k/100k documents,
# bulk-ingest throughput (in-memory baseline and per-fsync-policy WAL
# overhead), and startup recovery.
bench-store:
	$(GO) test -run xxx -bench 'BenchmarkStore' ./...

# One iteration of a representative benchmark per tier (evaluator,
# engine, store, planner) — catches bit-rot, not regressions; CI runs
# this on every push.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkP1EvalDeterministic|BenchmarkStoreFindMongo|BenchmarkStorePlanner' -benchtime 1x ./...

# End-to-end benchmark self-test: perfbench/ is its own Go module
# (go build ./... skips it), so a store or engine API change could
# break the committed benchmark while every other check stays green.
# The self-test builds it against this checkout and runs all four
# workloads at tiny sizes, traced and untraced, checking every answer;
# it prints "selftest ok".
bench-selftest:
	bash perfbench/run.sh --selftest

# Documentation checks: required docs exist, relative markdown links
# resolve, and every package (including examples/) compiles via vet.
docs-check:
	sh scripts/docs-check.sh

# Run the daemon durably against a throwaway data directory — the
# quickest way to poke the HTTP API (and kill-and-recover: rerun with
# the printed directory to recover it).
run-daemon:
	@dir=$$(mktemp -d /tmp/jsonstored-data.XXXXXX); \
	echo "data dir: $$dir"; \
	$(GO) run ./cmd/jsonstored -addr :8080 -data-dir "$$dir" -fsync interval

# Load-harness smoke: the jsonload self-tests drive the generator
# against an in-process daemon (real handlers over httptest) whose
# slow-query threshold is forced to 0, so every request exercises the
# full trace-capture path under load; asserts nonzero throughput,
# zero errors and a well-formed summary including the slowest-K
# request ids. -count=1 so the run is measured, not replayed from the
# test cache; CI runs this on every push.
loadtest-smoke:
	$(GO) test -run 'TestRun|TestGrid' -count=1 ./internal/load

# The full reproducible load grid: builds jsonstored + jsonload,
# starts a throwaway durable daemon, sweeps the experiments manifest
# (workload x concurrency, 30s per point) and writes one combined CSV
# table per run. Expect ~7 minutes with the default manifest; see
# cmd/jsonload/README.md for reading the results.
loadgrid:
	sh scripts/loadgrid/run_grid.sh

# Benchmarks as data: run the suite and record (name, ns/op, B/op,
# allocs/op) in $(BENCH_JSON), committed per PR so the performance
# trajectory is tracked in review diffs. BENCH_TIME trades noise for
# wall-clock: 3x keeps the suite runnable everywhere, but snapshots
# that feed the bench-diff gate should use 10x+ — on a small host a
# single GC pause inside a 3-sample mean reads as a 2× swing on the
# sub-millisecond benchmarks. Shapes, not absolute numbers, are the
# signal either way.
# Staged through a temp file (not a pipe) so a failing benchmark run
# aborts the target instead of silently writing a truncated snapshot;
# the trap removes the temp file on failure too.
BENCH_TIME ?= 3x
bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run xxx -bench . -benchtime $(BENCH_TIME) -benchmem ./... > "$$tmp"; \
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < "$$tmp"

# Diff two committed benchmark snapshots: per-benchmark ns/op and
# allocs/op deltas, failing on >25% regressions in the hot-path
# allowlist (see cmd/benchjson's defaultHotPath). Numbers only compare
# within one machine — run bench-json for both files on the same host.
bench-diff:
	$(GO) run ./cmd/benchjson -compare $(BENCH_OLD) $(BENCH_NEW)
