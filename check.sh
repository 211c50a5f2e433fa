#!/bin/sh
# Tier-1 verification: build, vet, full test suite, and a race-detector
# pass over the concurrency-sensitive packages — the control plane, the
# coroutine-based simulation kernel, the device library, and the parallel
# experiment harness (forced onto the multi-worker path via GOMAXPROCS).
set -ex
go build ./...
go vet ./...
# Every Go file must be gofmt-clean.
test -z "$(gofmt -l .)"
# Determinism vet: simulation code must not read the wall clock, print to
# stdout, or use the global RNG; metric names must be kubeshare_-prefixed
# snake_case with label keys from the bounded vocabulary; every registered
# kubeshare_ family must have a docs/METRICS.md row and vice versa (see
# tools/detvet).
go run ./tools/detvet -metricsdoc docs/METRICS.md ./internal
# The metrics reference itself must be freshly generated, not hand-edited.
go run ./tools/metricsdoc -check
# Perf-regression gate over BENCH.json: per watched metric, the newest
# record vs the previous one (virtual-clock values) or vs the best of the
# last five with the same cpus/gomaxprocs (wall-clock values), declared
# tolerances (see tools/benchgate).
go run ./tools/benchgate
go test ./...
# Telemetry export surface: the SLO alert engine and fairness auditor must
# replay byte-identically at a fixed seed, and every `kubeshare-sim serve`
# endpoint must answer over HTTP (httptest smoke in cmd/kubeshare-sim).
go test -run 'TestAlertDeterminismGolden|TestAuditDeterminismGolden' ./internal/experiments/
go test -run TestServeEndpoints ./cmd/kubeshare-sim/
go test -race ./internal/kube/... ./internal/core/...
go test -race ./internal/sim/... ./internal/devlib/...
# Sharing-strategy suites on the multi-worker path: the strategy interface
# (token/mps/replica) and the frontend refactor behind it must hold under
# the race detector with parallel test workers.
GOMAXPROCS=4 go test -race ./internal/devlib/... ./internal/gpusim/...
# Concurrent simulations in one process must not interfere: the trace and
# fig19 determinism tests run five identical dumps at once via runIndexed.
GOMAXPROCS=4 go test -race -run 'TestRunIndexed|TestFig8DeterminismGolden|TestTraceDeterminismGolden|TestFig19ConcurrentDeterminism' ./internal/experiments/
# Labeled-family interning and the TSDB under the race detector: family
# lookup is the one obs path exercised off the simulation goroutine. This
# pass also covers internal/obs/attr — the critical-path attribution
# engine and virtual-time profiler.
GOMAXPROCS=4 go test -race ./internal/obs/...
# Chaos soak under the race detector: the multi-seed recovery suite (node
# crashes, holder kills, device faults, watch drops, apiserver
# crash/restarts with WAL-tail corruption) must satisfy every quiescence
# invariant — including the final warm-recovery audit after one more
# restart at quiescence; failures print the seed to reproduce. The plain
# `go test ./...` pass above already ran it race-free.
GOMAXPROCS=4 go test -race ./internal/chaos/
# Durable-store and restart-recovery suites under the race detector: WAL
# replay composition (restore∘churn == live churn), torn-tail
# truncate-and-recover, epoch-fenced relists, and the no-double-delivery
# goldens across restart + drop.
GOMAXPROCS=4 go test -race -run 'TestRestore|TestCheckpoint|TestTornTail|TestWatchFencing|TestCrash|TestReflector|TestResume|TestEventSinkRestart' ./internal/kube/store/ ./internal/kube/apiserver/
# Scheduling-framework suite under the race detector on the multi-worker
# path: the Schedule-vs-reference Algorithm 1 equivalence property, the
# allocation-free NoCapacity decision, transaction rollback,
# batched-vs-sequential, conflict retry and gang all-or-nothing.
GOMAXPROCS=4 go test -race ./internal/core/schedfw/...
# The single-lock store under the race detector on the multi-worker path:
# the concurrent churn-vs-filtered-watch equivalence property, concurrent
# readers against a writer, and the label index.
GOMAXPROCS=4 go test -race -run 'TestConcurrent|TestIndex' ./internal/kube/store/
# Smoke the kernel micro-benchmarks so a regression that only breaks bench
# setup (not the unit tests) is caught here.
go test ./internal/sim/ -run xxx -bench BenchmarkSimKernel -benchtime 1x
# Smoke the schedfw layer micro-benchmarks (one Algorithm 1 decision per
# op at 1024 and 10240 devices, and the Figure 11 pool sizes); the
# zero-allocation NoCapacity budget is gated by
# TestScheduleNoCapacityAllocFree above.
go test ./internal/core/schedfw/ -run xxx -bench 'BenchmarkLayerSchedule|BenchmarkAlgorithm1' -benchtime 1x
# Smoke the devlib layer micro-benchmark (per-kernel-launch token
# admission, two tenants alternating on one device); the zero-allocation
# budget itself is gated by TestTokenAdmissionAllocFree above.
go test ./internal/devlib/ -run xxx -bench BenchmarkLayerDevlibLaunch -benchtime 1x
# Smoke the store + WAL layer micro-benchmark (Create, Update, ListSelector,
# Scan, WAL append per record, crash/replay per record) so a change that
# breaks its setup fails here.
go test ./internal/kube/store/ -run xxx -bench BenchmarkLayerStore -benchtime 1x
# Smoke the residual-policy ablation: it drives frontends over the token
# strategy from the backend registry with each sharing.ResidualPolicy, and
# no unit test runs it.
go test . -run xxx -bench BenchmarkAblationResidualPolicy -benchtime 1x
# Smoke the scheduler-throughput bench (Figure 15) at quick scale; bench.sh
# measures the full 10k point into BENCH.json.
go test . -run xxx -bench 'BenchmarkFig15SchedulerThroughput/quick' -benchtime 1x
# Smoke the scale sweep (Figure 16) at quick scale: the churn workload must
# place every sharePod (the quick-scale placements are pinned by
# TestFig16QuickGolden); bench.sh measures the full 1k/10k/100k sweep into
# BENCH.json.
go test . -run xxx -bench 'BenchmarkFig16ScaleSweep/quick' -benchtime 1x
# Smoke the control-plane recovery sweep (Figure 17) at quick scale: one
# restart mean, checkpointed vs checkpoint-free recovery, quiescence
# invariants enforced per cell; bench.sh measures the full sweep into
# BENCH.json.
go test . -run xxx -bench 'BenchmarkFig17RecoverySweep/quick' -benchtime 1x
# Smoke the sharing-strategy comparison (Figure 18) at quick scale: all
# three strategies plus the memory-quantity admission/placement witness run
# deterministically per seed; bench.sh measures the full grid into
# BENCH.json.
go test . -run xxx -bench 'BenchmarkFig18StrategyComparison/quick' -benchtime 1x
# Smoke the latency-attribution experiment (Figure 19) at quick scale: the
# fig18 grid with critical-path attribution on; the run enforces the exact
# phase-sum invariant per chain and zero open chains; bench.sh measures the
# full grid into BENCH.json.
go test . -run xxx -bench 'BenchmarkFig19Attribution/quick' -benchtime 1x
# Smoke the instrumentation-overhead benchmark (obs on vs off on the Fig 9
# workload); ./bench.sh measures it properly into BENCH.json.
go test . -run xxx -bench BenchmarkFig9Obs -benchtime 1x
