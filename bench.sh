#!/usr/bin/env bash
# bench.sh — measure the simulation-substrate benchmarks plus the
# observability-spine overhead and append one dated record to BENCH.json.
#
# Usage:
#   ./bench.sh                 # measure the current tree only
#   BASELINE_REF=<git-ref> ./bench.sh
#                              # also measure <git-ref> from a temporary
#                              # worktree, interleaved run-by-run with the
#                              # current tree, and report speedups
#
# Interleaving matters: on a shared machine the run-to-run variance of the
# GC-heavy micro-benchmarks is large (±30% has been observed), so comparing
# a baseline measured at one time against a new tree measured at another
# mostly measures the machine. Each round runs baseline then current
# back-to-back and the minimum over rounds is reported for both sides.
# Allocation counts (allocs/op) are exact and machine-independent; prefer
# them when judging the result.
#
# The obs_overhead section runs BenchmarkFig9Obs/on and /off (the identical
# Figure 9 KubeShare workload with telemetry recording enabled vs disabled),
# each arm in its own `go test` process so one arm's heap/GC state cannot
# color the other. Budget: on/off - 1 <= 5%.
#
# BENCH.json accumulates every run as a dated record (oldest first);
# tools/benchmerge does the JSON appending.
set -euo pipefail
cd "$(dirname "$0")"

COUNT="${COUNT:-3}"
OBS_COUNT="${OBS_COUNT:-5}"
BASELINE_REF="${BASELINE_REF:-}"
OUT="${OUT:-BENCH.json}"

# Every benchmark section records the cpus/gomaxprocs it ran under: wall-clock
# numbers are meaningless without them, and tools/benchmerge rejects records
# that omit them. Every section runs at the Go default GOMAXPROCS.
CPUS="$(nproc)"
GMP="${GOMAXPROCS:-$CPUS}"

MICRO='BenchmarkTimerChurn|BenchmarkProcContextSwitch|BenchmarkQueueHandoff|BenchmarkManyProcs|BenchmarkSimKernel'
FIGS='BenchmarkFig8aJobFrequency|BenchmarkFig9Utilization'

run_micro() { # $1 = dir
  (cd "$1" && go test ./internal/sim/ -run xxx -bench "$MICRO" -benchtime 1s -benchmem 2>/dev/null | grep '^Benchmark' || true)
}
run_figs() { # $1 = dir
  (cd "$1" && go test . -run xxx -bench "$FIGS" -benchtime 1x 2>/dev/null | grep '^Benchmark' || true)
}

BASEDIR=""
cleanup() {
  if [ -n "$BASEDIR" ] && [ -d "$BASEDIR" ]; then
    git worktree remove --force "$BASEDIR" >/dev/null 2>&1 || rm -rf "$BASEDIR"
  fi
}
trap cleanup EXIT

if [ -n "$BASELINE_REF" ]; then
  BASEDIR="$(mktemp -d /tmp/bench-baseline.XXXXXX)"
  rmdir "$BASEDIR"
  git worktree add --detach "$BASEDIR" "$BASELINE_REF" >/dev/null
fi

NEW_RAW="$(mktemp)"
BASE_RAW="$(mktemp)"
OBS_RAW="$(mktemp)"
FIG15_RAW="$(mktemp)"
FIG16_RAW="$(mktemp)"
FIG17_RAW="$(mktemp)"
FIG18_RAW="$(mktemp)"
FIG19_RAW="$(mktemp)"
RECORD="$(mktemp)"
trap 'rm -f "$NEW_RAW" "$BASE_RAW" "$OBS_RAW" "$FIG15_RAW" "$FIG16_RAW" "$FIG17_RAW" "$FIG18_RAW" "$FIG19_RAW" "$RECORD"; cleanup' EXIT

for ((i = 1; i <= COUNT; i++)); do
  echo "round $i/$COUNT..." >&2
  if [ -n "$BASEDIR" ]; then
    run_micro "$BASEDIR" >>"$BASE_RAW"
    run_figs "$BASEDIR" >>"$BASE_RAW"
  fi
  run_micro . >>"$NEW_RAW"
  run_figs . >>"$NEW_RAW"
done

for ((i = 1; i <= OBS_COUNT; i++)); do
  echo "obs round $i/$OBS_COUNT..." >&2
  for arm in on off; do
    go test . -run xxx -bench "BenchmarkFig9Obs/$arm\$" -benchtime 3x 2>/dev/null |
      grep '^BenchmarkFig9Obs' >>"$OBS_RAW"
  done
done

# Scheduler-throughput point (Figure 15): one run of the full-scale sweep;
# the reported metrics are virtual-clock ratios, so rounds add nothing.
echo "fig15 (scheduler throughput, 10k sharePods)..." >&2
go test . -run xxx -bench 'BenchmarkFig15SchedulerThroughput/full$' -benchtime 1x 2>/dev/null |
  grep '^BenchmarkFig15' >"$FIG15_RAW" || true

# Scheduler scale sweep (Figure 16): 1k → 10k → 100k sharePods through the
# batched scheduler. The recorded numbers are per-size wall-clock and the
# decision count that wall time paid for (deterministic per size).
echo "fig16 (scale sweep to 100k sharePods)..." >&2
go test . -run xxx -bench 'BenchmarkFig16ScaleSweep/full$' -benchtime 1x 2>/dev/null |
  grep '^BenchmarkFig16' >"$FIG16_RAW" || true

# Control-plane recovery sweep (Figure 17): restart intensity × checkpoint
# cadence under apiserver crash/restart chaos. The metrics are virtual-side
# (replayed records, modeled unavailability), so one run suffices; the run
# itself enforces the quiescence invariants per cell.
echo "fig17 (control-plane recovery sweep)..." >&2
go test . -run xxx -bench 'BenchmarkFig17RecoverySweep/full$' -benchtime 1x 2>/dev/null |
  grep '^BenchmarkFig17' >"$FIG17_RAW" || true

# Sharing-strategy comparison (Figure 18): token vs MPS-overlap vs replica
# time-slicing on small/large-kernel mixes, plus the memory-quantity mode's
# typed-rejection and byte-placement witness. The metrics are virtual-clock
# throughputs from identical seeded workloads, so one run suffices.
echo "fig18 (sharing-strategy comparison)..." >&2
go test . -run xxx -bench 'BenchmarkFig18StrategyComparison/full$' -benchtime 1x 2>/dev/null |
  grep '^BenchmarkFig18' >"$FIG18_RAW" || true

# Latency attribution (Figure 19): the fig18 grid replayed with
# critical-path attribution on; per-arm phase budgets (token-wait, e2e) in
# virtual milliseconds. Virtual-clock, so one run suffices; the run itself
# enforces the exact phase-sum invariant per chain.
echo "fig19 (latency attribution)..." >&2
go test . -run xxx -bench 'BenchmarkFig19Attribution/full$' -benchtime 1x 2>/dev/null |
  grep '^BenchmarkFig19' >"$FIG19_RAW" || true

# min_ns <raw-file> <bench-name>: minimum ns/op over rounds, or empty.
min_ns() {
  awk -v name="$2" '$1 ~ "^"name"(-[0-9]+)?$" {
    for (i = 1; i <= NF; i++) if ($i == "ns/op") v = $(i-1)
    if (v != "" && (best == "" || v + 0 < best + 0)) best = v
  } END { if (best != "") printf "%s", best }' "$1"
}
# metric_of <raw-file> <unit>: value of a b.ReportMetric column, or empty.
metric_of() {
  awk -v unit="$2" '{
    for (i = 2; i <= NF; i++) if ($i == unit) { printf "%s", $(i-1); exit }
  }' "$1"
}
allocs_of() {
  awk -v name="$2" '$1 ~ "^"name"(-[0-9]+)?$" {
    for (i = 1; i <= NF; i++) if ($i == "allocs/op") { printf "%s", $(i-1); exit }
  }' "$1"
}

BENCHES='BenchmarkTimerChurn BenchmarkProcContextSwitch BenchmarkQueueHandoff BenchmarkManyProcs BenchmarkSimKernelSameInstant BenchmarkSimKernelTimerStop BenchmarkSimKernelDeepHeap BenchmarkFig8aJobFrequency BenchmarkFig9Utilization'

ON="$(min_ns "$OBS_RAW" 'BenchmarkFig9Obs/on')"
OFF="$(min_ns "$OBS_RAW" 'BenchmarkFig9Obs/off')"
if [ -z "$ON" ] || [ -z "$OFF" ]; then
  echo "bench.sh: BenchmarkFig9Obs produced no output" >&2
  exit 1
fi
OVERHEAD="$(awk -v on="$ON" -v off="$OFF" 'BEGIN { printf "%.4f", on / off - 1 }')"
WITHIN="$(awk -v o="$OVERHEAD" 'BEGIN { print (o <= 0.05) ? "true" : "false" }')"

{
  echo '{'
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"commit\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
  echo "  \"go\": \"$(go version | awk '{print $3}')\","
  echo "  \"cpus\": $CPUS,"
  echo "  \"rounds\": $COUNT,"
  if [ -n "$BASELINE_REF" ]; then
    echo "  \"baseline_ref\": \"$(git rev-parse "$BASELINE_REF")\","
  fi
  echo '  "note": "min ns/op over interleaved rounds; wall-clock ratios are noisy on shared machines, allocs/op are exact",'
  echo '  "benchmarks": {'
  first=1
  for b in $BENCHES; do
    new="$(min_ns "$NEW_RAW" "$b")"
    [ -z "$new" ] && continue
    [ $first -eq 0 ] && echo ','
    first=0
    printf '    "%s": {' "$b"
    printf '"cpus": %s, "gomaxprocs": %s, ' "$CPUS" "$GMP"
    printf '"ns_op": %s' "$new"
    na="$(allocs_of "$NEW_RAW" "$b")"
    [ -n "$na" ] && printf ', "allocs_op": %s' "$na"
    if [ -n "$BASEDIR" ]; then
      base="$(min_ns "$BASE_RAW" "$b")"
      if [ -n "$base" ]; then
        printf ', "baseline_ns_op": %s' "$base"
        ba="$(allocs_of "$BASE_RAW" "$b")"
        [ -n "$ba" ] && printf ', "baseline_allocs_op": %s' "$ba"
        printf ', "speedup": %s' "$(awk -v a="$base" -v b="$new" 'BEGIN { printf "%.2f", a / b }')"
      fi
    fi
    printf '}'
  done
  echo ''
  echo '  },'
  if [ -s "$FIG15_RAW" ]; then
    SINGLE="$(metric_of "$FIG15_RAW" single-dps)"
    BATCHED="$(metric_of "$FIG15_RAW" batched-dps)"
    GANG="$(metric_of "$FIG15_RAW" gang-dps)"
    SPEEDUP="$(metric_of "$FIG15_RAW" batched-speedup)"
    echo '  "fig15_scheduler_throughput": {'
    echo '    "benchmark": "BenchmarkFig15SchedulerThroughput/full (10000 pending sharePods, batch 64, gang 4)",'
    echo "    \"cpus\": $CPUS,"
    echo "    \"gomaxprocs\": $GMP,"
    echo "    \"single_decisions_per_sec\": $SINGLE,"
    echo "    \"batched_decisions_per_sec\": $BATCHED,"
    echo "    \"gang_decisions_per_sec\": $GANG,"
    echo "    \"batched_speedup\": $SPEEDUP,"
    echo "    \"meets_3x\": $(awk -v s="$SPEEDUP" 'BEGIN { print (s + 0 >= 3) ? "true" : "false" }')"
    echo '  },'
  fi
  if [ -s "$FIG16_RAW" ]; then
    echo '  "fig16_scale": {'
    echo '    "benchmark": "BenchmarkFig16ScaleSweep/full (churn workload, 128x8 pool, batch 256)",'
    echo "    \"cpus\": $CPUS,"
    printf '    "gomaxprocs": %s' "$GMP"
    for n in 1000 10000 100000; do
      WALL="$(metric_of "$FIG16_RAW" "$n-wall-ms")"
      DEC="$(metric_of "$FIG16_RAW" "$n-decisions")"
      [ -z "$WALL" ] && continue
      printf ',\n    "sharepods_%s": {"wall_ms": %s, "decisions": %s}' "$n" "$WALL" "$DEC"
    done
    printf '\n  },\n'
  fi
  if [ -s "$FIG17_RAW" ]; then
    echo '  "fig17_recovery_sweep": {'
    echo '    "benchmark": "BenchmarkFig17RecoverySweep/full (restart means 40/20/10s, checkpoint 5s vs disabled)",'
    echo "    \"cpus\": $CPUS,"
    echo "    \"gomaxprocs\": $GMP,"
    WORST=""
    for m in 40 20 10; do
      CR="$(metric_of "$FIG17_RAW" "mean${m}s-ckpt-replayed")"
      NR="$(metric_of "$FIG17_RAW" "mean${m}s-nockpt-replayed")"
      CO="$(metric_of "$FIG17_RAW" "mean${m}s-ckpt-outage-ms")"
      NO="$(metric_of "$FIG17_RAW" "mean${m}s-nockpt-outage-ms")"
      [ -z "$CR" ] && continue
      echo "    \"restart_mean_${m}s\": {\"ckpt_replayed\": $CR, \"nockpt_replayed\": $NR, \"ckpt_outage_ms\": $CO, \"nockpt_outage_ms\": $NO},"
      WORST="$(awk -v a="${WORST:-0}" -v b="$NO" 'BEGIN { printf "%s", (b + 0 > a + 0) ? b : a }')"
    done
    echo "    \"worst_nockpt_outage_ms\": ${WORST:-0}"
    echo '  },'
  fi
  if [ -s "$FIG18_RAW" ]; then
    RATIO="$(metric_of "$FIG18_RAW" mps-over-token-small)"
    echo '  "fig18_strategy_comparison": {'
    echo '    "benchmark": "BenchmarkFig18StrategyComparison/full (token vs mps vs replica, small/large-kernel mixes)",'
    echo "    \"cpus\": $CPUS,"
    echo "    \"gomaxprocs\": $GMP,"
    for mix in small large; do
      T="$(metric_of "$FIG18_RAW" "$mix-token-tput")"
      M="$(metric_of "$FIG18_RAW" "$mix-mps-tput")"
      R="$(metric_of "$FIG18_RAW" "$mix-replica-tput")"
      TS="$(metric_of "$FIG18_RAW" "$mix-token-stretch")"
      MS="$(metric_of "$FIG18_RAW" "$mix-mps-stretch")"
      [ -z "$T" ] && continue
      echo "    \"${mix}_kernel\": {\"token_tput\": $T, \"mps_tput\": $M, \"replica_tput\": $R, \"token_stretch\": $TS, \"mps_stretch\": $MS},"
    done
    echo "    \"mps_over_token_small\": ${RATIO:-0},"
    echo "    \"mps_beats_token_small\": $(awk -v r="${RATIO:-0}" 'BEGIN { print (r + 0 > 1) ? "true" : "false" }'),"
    echo "    \"membytes_rejected_typed\": $(metric_of "$FIG18_RAW" membytes-rejected-typed),"
    echo "    \"membytes_completed\": $(metric_of "$FIG18_RAW" membytes-completed),"
    echo "    \"membytes_failed\": $(metric_of "$FIG18_RAW" membytes-failed)"
    echo '  },'
  fi
  if [ -s "$FIG19_RAW" ]; then
    echo '  "fig19_attribution": {'
    echo '    "benchmark": "BenchmarkFig19Attribution/full (per-strategy phase budgets, completed chains only)",'
    echo "    \"cpus\": $CPUS,"
    echo "    \"gomaxprocs\": $GMP,"
    for mix in small large; do
      TW="$(metric_of "$FIG19_RAW" "$mix-token-tokenwait-ms")"
      MW="$(metric_of "$FIG19_RAW" "$mix-mps-tokenwait-ms")"
      RW="$(metric_of "$FIG19_RAW" "$mix-replica-tokenwait-ms")"
      TE="$(metric_of "$FIG19_RAW" "$mix-token-e2e-ms")"
      ME="$(metric_of "$FIG19_RAW" "$mix-mps-e2e-ms")"
      RE="$(metric_of "$FIG19_RAW" "$mix-replica-e2e-ms")"
      [ -z "$TW" ] && continue
      echo "    \"${mix}_kernel\": {\"token_wait_ms\": $TW, \"mps_wait_ms\": $MW, \"replica_wait_ms\": $RW, \"token_e2e_ms\": $TE, \"mps_e2e_ms\": $ME, \"replica_e2e_ms\": $RE},"
    done
    echo "    \"open_chains\": $(metric_of "$FIG19_RAW" open-chains)"
    echo '  },'
  fi
  echo '  "obs_overhead": {'
  echo '    "benchmark": "BenchmarkFig9Obs (Figure 9 KubeShare arm, quick scale, labeled metrics)",'
  echo "    \"cpus\": $CPUS,"
  echo "    \"gomaxprocs\": $GMP,"
  echo "    \"rounds\": $OBS_COUNT,"
  echo "    \"on_ns\": $ON,"
  echo "    \"off_ns\": $OFF,"
  echo "    \"overhead\": $OVERHEAD,"
  echo "    \"within_budget\": $WITHIN"
  echo '  }'
  echo '}'
} >"$RECORD"

go run ./tools/benchmerge -out "$OUT" <"$RECORD"
echo "appended record to $OUT (obs overhead $(awk -v o="$OVERHEAD" 'BEGIN { printf "%.1f%%", o * 100 }'))" >&2
