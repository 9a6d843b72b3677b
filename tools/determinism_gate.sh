#!/usr/bin/env bash
# Determinism gate: runs of the same seed must emit byte-identical event
# traces and an identical BENCH_*.json metrics section. Only wall-clock
# histograms (profile.*, *_us) are exempt.
#
# Three legs:
#   storage    — DLT_STORAGE=memory vs disk (pluggable persistence) on the
#                chain, dag (lattice), tangle and open-loop benches:
#                flipping the storage mode must leave metrics and traces
#                byte-identical. The open-loop leg compares all three of
#                its traces: the chain reference run and the saturated
#                lattice and tangle top points.
#   simcore    — two bench_simcore runs agree on their fire-order
#                checksums.
#   golden     — the chain, dag, tangle, adversarial and open-loop traces
#                at the default configuration must match the digests
#                pinned in tools/golden/traces.sha256, so a change that
#                moves both sides of the storage leg together still
#                shows. The chain bench is the one that drives the UTXO
#                wallet at scale (hundreds of coins per account, a growing
#                backlog of reserved coins), so its digest pins coin
#                selection. The open-loop lattice and tangle traces pin
#                the DAG admission queues (ClusterEngine::enqueue_traffic
#                and its drain).
#
#   tools/determinism_gate.sh [build-dir]   # default: build
#
# Invoked by tools/check.sh --determinism, or via ctest when configured
# with -DDLT_DETERMINISM_GATE=ON.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[[ "$BUILD" = /* ]] || BUILD="$(pwd)/$BUILD"
DIFF="$(pwd)/tools/bench_diff.py"

# gate_storage <bench-name> [extra-trace...]: run the same bench with the
# storage layer in memory and in disk mode (DLT_STORAGE) and demand
# identical metrics and byte-identical traces — the storage determinism
# contract: flipping the persistence mode may never shift a trace or a
# metric. Each extra trace file named is compared too.
# Absolute storage paths never appear in the reports (string leaves are
# not compared by bench_diff). Segment counts are compared like every
# other gauge: rotation is the same arithmetic in both modes.
gate_storage() {
  local bench="$1"
  shift
  local bin="$BUILD/bench/$bench"

  if [[ ! -x "$bin" ]]; then
    echo "determinism gate: $bin not built (build the bench targets first)" >&2
    exit 2
  fi

  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$work'" RETURN

  for mode in memory disk; do
    local dir="$work/$mode"
    mkdir -p "$dir"
    echo "=== [determinism/storage] $bench @ DLT_STORAGE=$mode ==="
    (cd "$dir" &&
     env DLT_STORAGE="$mode" DLT_TRACE=1 "$bin" >/dev/null)
  done

  echo "=== [determinism/storage] $bench metrics: exact diff ==="
  python3 "$DIFF" --exact --quiet \
    "$work/memory/BENCH_${bench#bench_}.json" \
    "$work/disk/BENCH_${bench#bench_}.json"

  echo "=== [determinism/storage] $bench trace: byte compare ==="
  local trace
  for trace in "TRACE_${bench#bench_}.jsonl" "$@"; do
    cmp "$work/memory/$trace" "$work/disk/$trace"
  done
  echo "traces byte-identical across storage modes"
}

# gate_simcore: the scheduler microbench embeds a fire-order differential
# against the legacy engine (exits nonzero on divergence) and writes its
# checksums into BENCH_simcore.json `deterministic`; two runs must agree
# exactly there. The `perf` section is wall-clock and exempt.
gate_simcore() {
  local bin="$BUILD/bench/bench_simcore"
  if [[ ! -x "$bin" ]]; then
    echo "determinism gate: $bin not built (build the bench targets first)" >&2
    exit 2
  fi
  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$work'" RETURN
  for run in 1 2; do
    mkdir -p "$work/r$run"
    echo "=== [determinism/simcore] bench_simcore run $run ==="
    (cd "$work/r$run" && "$bin" >/dev/null)
  done
  echo "=== [determinism/simcore] metrics: exact diff (perf section exempt) ==="
  python3 "$DIFF" --exact --quiet --ignore perf. \
    "$work/r1/BENCH_simcore.json" "$work/r2/BENCH_simcore.json"
}

# gate_golden: the pinned-digest leg. Every DLT_* variable is dropped, so
# the runs are the default configuration whatever the caller exported.
# Re-baselining means regenerating tools/golden/traces.sha256 (sha256sum
# of the seven TRACE_*.jsonl files from such a run) in a change that says
# why.
gate_golden() {
  local golden
  golden="$(pwd)/tools/golden/traces.sha256"
  local -a clean_env=()
  local name
  for name in $(compgen -e); do
    if [[ "$name" == DLT_* ]]; then clean_env+=(-u "$name"); fi
  done

  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$work'" RETURN
  local bench
  for bench in bench_throughput_chain bench_throughput_dag \
               bench_throughput_tangle bench_adversarial bench_openloop; do
    local bin="$BUILD/bench/$bench"
    if [[ ! -x "$bin" ]]; then
      echo "determinism gate: $bin not built (build the bench targets first)" >&2
      exit 2
    fi
    echo "=== [determinism/golden] $bench @ default ==="
    (cd "$work" && env "${clean_env[@]}" DLT_TRACE=1 "$bin" >/dev/null)
  done
  echo "=== [determinism/golden] trace digests vs tools/golden/traces.sha256 ==="
  (cd "$work" && sha256sum -c "$golden")
}

gate_storage bench_throughput_chain
gate_storage bench_throughput_dag
gate_storage bench_throughput_tangle
gate_storage bench_openloop TRACE_openloop_lattice.jsonl \
  TRACE_openloop_tangle.jsonl
gate_simcore
gate_golden
echo "=== [determinism] OK ==="
