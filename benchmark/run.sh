#!/usr/bin/env bash
# The benchmark's one command (see benchmark/README.md). It builds
# lhd_bench into build-bench/ when needed, then either
#
#   runs one workload (the form BENCHMARK.json's command is called with):
#     benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   the last line of its output is the run's JSON result; or
#
#   runs a set — every workload, each run in its own process:
#     benchmark/run.sh [--runs=K] [--seed=S] [--seconds=T] [--trace] [--out=F]
#   K runs per workload with seeds S..S+K-1, printing `workload metric value
#   unit` per metric and writing every run record to one set file
#   (BENCH_lhd_bench.json, or BENCH_lhd_bench_trace.json with --trace); or
#
#   runs the smoke set — toy sizes, every workload twice, one traced run
#   and a compare of the two sets:
#     benchmark/run.sh --smoke
#
# Compare two set files with:
#   build-bench/lhd_bench compare <setA.json> <setB.json>
#
# --bin=<path> uses an already built lhd_bench and skips the build. Exits
# non-zero when a build or run fails or a correctness check fails.

set -u

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

usage() {
  sed -n '2,24p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload="" seed=1 seconds="" trace=0 smoke=0 runs=5 out="" bin=""
while [ $# -gt 0 ]; do
  arg=$1
  shift
  case "$arg" in
    --*=*)
      key=${arg%%=*}
      value=${arg#*=}
      ;;
    --trace | --smoke)
      key=$arg
      value=1
      if [ $# -gt 0 ] && [[ $1 != --* ]]; then
        value=$1
        shift
      fi
      ;;
    --*)
      [ $# -gt 0 ] || usage
      key=$arg
      value=$1
      shift
      ;;
    *) usage ;;
  esac
  case "$key" in
    --workload) workload=$value ;;
    --seed) seed=$value ;;
    --seconds) seconds=$value ;;
    --trace) trace=$value ;;
    --smoke) smoke=$value ;;
    --runs) runs=$value ;;
    --out) out=$value ;;
    --bin) bin=$value ;;
    *) usage ;;
  esac
done

if [ -z "$bin" ]; then
  bin="$build/lhd_bench"
  # Build output goes to stderr: stdout carries the results.
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 ||
      exit 1
  fi
  cmake --build "$build" --target lhd_bench -j "$(nproc)" >&2 || exit 1
fi

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" \
    --seconds "${seconds:-10}" --trace "$trace" --smoke "$smoke"
fi

if [ "$smoke" != 0 ]; then
  seconds=${seconds:-0.5}
else
  seconds=${seconds:-10}
fi
mapfile -t all < <("$bin" --list)
[ "${#all[@]}" -gt 0 ] || exit 1
status=0

# run_set <set file> <trace 0|1> <runs per workload> <workload>...
run_set() {
  local set=$1 traced=$2 count=$3
  shift 3
  rm -f "$set"
  local w i s output
  for w in "$@"; do
    for ((i = 0; i < count; i++)); do
      s=$((seed + i))
      if ! output=$("$bin" --workload "$w" --seed "$s" --seconds "$seconds" \
        --trace "$traced" --smoke "$smoke" --record "$set"); then
        echo "run.sh: $w seed $s: run failed" >&2
        status=1
        continue
      fi
      printf '%s\n' "$output" | sed '$d'
      case "$(printf '%s\n' "$output" | tail -n 1)" in
        *'"correct":true'*) ;;
        *)
          echo "run.sh: $w seed $s: correctness check failed" >&2
          status=1
          ;;
      esac
    done
  done
  echo "run.sh: wrote $set" >&2
}

if [ "$smoke" != 0 ]; then
  run_set BENCH_lhd_bench_smoke_a.json 0 1 "${all[@]}"
  run_set BENCH_lhd_bench_smoke_b.json 0 1 "${all[@]}"
  run_set BENCH_lhd_bench_smoke_trace.json 1 1 "${all[0]}"
  "$bin" compare BENCH_lhd_bench_smoke_a.json BENCH_lhd_bench_smoke_b.json \
    --benchmark "$root/BENCHMARK.json" || status=1
  exit "$status"
fi

if [ -z "$out" ]; then
  out=BENCH_lhd_bench.json
  [ "$trace" = 0 ] || out=BENCH_lhd_bench_trace.json
fi
run_set "$out" "$trace" "$runs" "${all[@]}"
exit "$status"
