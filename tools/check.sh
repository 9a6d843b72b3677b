#!/usr/bin/env bash
# One-shot gate: tier-1 build + tests, then the same suite under
# AddressSanitizer and UndefinedBehaviorSanitizer.
#
#   tools/check.sh                # tier-1 + asan + ubsan
#   tools/check.sh --fast         # tier-1 only
#   tools/check.sh --determinism  # tier-1 + determinism gates
#   tools/check.sh --perf         # tier-1 + Release perf gate
#   tools/check.sh --latency      # tier-1 + lifecycle-latency pipeline gate
#   tools/check.sh --attacks      # tier-1 + adversarial-suite safety gate
#   tools/check.sh --storage      # tier-1 + §V on-disk ledger-size gate
#   tools/check.sh --traffic      # tier-1 + E20 open-loop admission gate
#   tools/check.sh --perfbench    # tier-1 + benchmark driver build + runs
#
# Flags combine: `tools/check.sh --determinism --attacks` runs the tier-1
# suite once, then both extra passes in one invocation. Any extra flag
# implies --fast (the asan/ubsan pair stays opt-out via the plain run).
#
# Every run starts with the single-thread lint: the simulator runs on one
# thread and no type is thread-safe (DESIGN.md), so any thread, async
# task, atomic, mutex, condition variable or thread_local in src, bench,
# tests or examples fails the check before anything builds.
#
# Each pass uses its own build directory so sanitizer flags never leak
# into the primary build/ tree. --determinism replays each cluster
# bench's seed in memory and disk storage mode and checks the default
# traces against the pinned golden digests, requiring identical metrics +
# byte-identical traces (tools/determinism_gate.sh).
# --perf builds bench_simcore and bench_hotpath in a Release tree
# (build-perf) and gates on the recorded scheduler speedup: the slab
# engine must hold >= 2x events/sec over the embedded legacy scheduler;
# on a CPU with SHA-NI, SHA-256 through the CPUID-dispatched compress
# must hold >= 3x the portable compress's MB/s (a skip line otherwise);
# and the mean tangle attach time at 15,000-16,000 transactions must stay
# within 2x the mean at 1,000-2,000 (attach cost independent of size).
# --latency runs a traced cluster bench end-to-end through the
# observability pipeline: DLT_TRACE trace -> tools/trace_plot.py Gantt +
# CDF outputs (must be non-empty), plus a direction check that
# tools/bench_diff.py treats latency increases AND confirmed-count drops
# as regressions.
# --attacks runs bench_adversarial and gates on the measured safety
# metrics: parasite flip probability monotone nondecreasing and spam
# honest tip share monotone nonincreasing in attacker power, across >= 3
# power levels under >= 2 tip-selection strategies, with the attack.*
# gauges present in the exported metrics section.
# --storage runs bench_ledger_size (E19) in both DLT_STORAGE modes and
# gates on: the bench's own exit status (every §V-A pruning discipline
# shrinks its log, the on-disk bytes match the storage.* gauges, and the
# overbudget ledger outgrows its RAM budget), memory-vs-disk equality of
# the exported report (the storage determinism contract), and the §V
# size ordering on real bytes: UTXO archival > account state-pruned >
# lattice head-only.
# --traffic runs bench_openloop (E20) and re-derives its gates from the
# exported JSON: admission.* reconciles exactly on every sweep row, the
# top point per ledger is past saturation (offered > achieved) with
# admission pressure (evictions or backpressure), and every fee class
# has a non-empty latency histogram there.
# --perfbench runs `python3 -m unittest perfbench/test_perfbench.py`: it
# builds the benchmark driver (perfbench/dltbench.cpp over every src/ file,
# under .bench_build/perfbench) and runs each of its workloads in short
# mode, traced and untraced. Nothing else builds that driver, so this is
# the leg that fails when a src/ change breaks it.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
DETERMINISM=0
PERF=0
LATENCY=0
ATTACKS=0
STORAGE=0
TRAFFIC=0
PERFBENCH=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --determinism) FAST=1; DETERMINISM=1 ;;
    --perf) FAST=1; PERF=1 ;;
    --latency) FAST=1; LATENCY=1 ;;
    --attacks) FAST=1; ATTACKS=1 ;;
    --storage) FAST=1; STORAGE=1 ;;
    --traffic) FAST=1; TRAFFIC=1 ;;
    --perfbench) FAST=1; PERFBENCH=1 ;;
    *)
      echo "usage: tools/check.sh [--fast] [--determinism] [--perf] [--latency] [--attacks] [--storage] [--traffic] [--perfbench]" >&2
      exit 2
      ;;
  esac
done

run_pass() {
  local label="$1" dir="$2"
  shift 2
  echo "=== [$label] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$label] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$label] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  echo "=== [$label] OK ==="
}

echo "=== [lint] single-threaded by construction ==="
if grep -rnE "std::(thread|jthread|async|atomic|mutex|shared_mutex|condition_variable)|thread_local|pthread_create" \
    src bench tests examples; then
  echo "FAIL: concurrency primitive above; the simulator is single-threaded (DESIGN.md)" >&2
  exit 1
fi

run_pass tier-1 build

if [[ "$DETERMINISM" == "1" ]]; then
  cmake --build build -j "$JOBS" --target bench_throughput_chain \
    bench_throughput_dag bench_throughput_tangle bench_adversarial \
    bench_openloop
  tools/determinism_gate.sh build
fi

if [[ "$ATTACKS" == "1" ]]; then
  echo "=== [attacks] bench_adversarial ==="
  cmake --build build -j "$JOBS" --target bench_adversarial
  attdir="$(mktemp -d)"
  (cd "$attdir" && "$OLDPWD/build/bench/bench_adversarial" > bench_stdout.txt)
  echo "=== [attacks] safety-metric monotonicity + gauge presence ==="
  python3 - "$attdir/BENCH_adversarial.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))

def sweeps(rows, metric):
    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row["strategy"], []).append(
            (row["power"], row[metric]))
    return {s: sorted(v) for s, v in by_strategy.items()}

def check(name, rows, metric, decreasing):
    swept = sweeps(rows, metric)
    if len(swept) < 2:
        sys.exit(f"FAIL: {name} swept {len(swept)} strategies, need >= 2")
    for strategy, points in swept.items():
        if len(points) < 3:
            sys.exit(f"FAIL: {name}/{strategy} has {len(points)} power "
                     "levels, need >= 3")
        values = [v for _, v in points]
        ordered = all(b <= a if decreasing else b >= a
                      for a, b in zip(values, values[1:]))
        if not ordered:
            sys.exit(f"FAIL: {name}/{strategy} {metric} not monotone: "
                     f"{values}")
        if values[0] == values[-1]:
            sys.exit(f"FAIL: {name}/{strategy} {metric} is flat: {values}")
        print(f"{name}/{strategy}: {metric} {values[0]:.3f} -> "
              f"{values[-1]:.3f} over {len(values)} powers")

check("parasite", report["parasite"], "flip_probability", decreasing=False)
check("spam", report["spam"], "honest_tip_share", decreasing=True)

gauges = report.get("metrics", {}).get("gauges", {})
missing = [g for g in ("attack.parasite.flip_probability",
                       "fairness.inclusion_gini") if g not in gauges]
if missing:
    sys.exit(f"FAIL: attack gauges missing from metrics export: {missing}")
selfish = report["selfish"]
if not any(row["revenue_share"] > 0 for row in selfish):
    sys.exit("FAIL: no selfish-mining power level earned revenue")
print(f"selfish: revenue {selfish[0]['revenue_share']:.3f} -> "
      f"{selfish[-1]['revenue_share']:.3f} over {len(selfish)} powers")
EOF
  rm -rf "$attdir"
  echo "=== [attacks] OK ==="
fi

if [[ "$STORAGE" == "1" ]]; then
  echo "=== [storage] bench_ledger_size (E19) in both DLT_STORAGE modes ==="
  cmake --build build -j "$JOBS" --target bench_ledger_size
  stodir="$(mktemp -d)"
  for mode in memory disk; do
    mkdir -p "$stodir/$mode"
    echo "=== [storage] DLT_STORAGE=$mode ==="
    (cd "$stodir/$mode" &&
     env DLT_STORAGE="$mode" "$OLDPWD/build/bench/bench_ledger_size" \
       > bench_stdout.txt) || {
      echo "FAIL: bench_ledger_size ($mode mode) gates failed" >&2
      tail -n 40 "$stodir/$mode/bench_stdout.txt" >&2
      exit 1
    }
  done
  echo "=== [storage] memory-vs-disk report equality (determinism contract) ==="
  python3 tools/bench_diff.py --exact --quiet \
    "$stodir/memory/BENCH_ledger_size.json" \
    "$stodir/disk/BENCH_ledger_size.json"
  echo "=== [storage] §V ordering on real bytes ==="
  python3 - "$stodir/disk/BENCH_ledger_size.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
order = report["ordering"]
utxo, account, lattice = (order["utxo_full_log"],
                          order["account_pruned_log"],
                          order["lattice_pruned_log"])
if not (utxo > account > lattice):
    sys.exit(f"FAIL: §V ordering violated: UTXO {utxo} B, "
             f"account {account} B, lattice {lattice} B")
print(f"UTXO archival {utxo} B > account state-pruned {account} B "
      f"> lattice head-only {lattice} B")
for row in report["systems"]:
    s = row["storage"]
    if s["log_bytes_pruned"] >= s["log_bytes_full"]:
        sys.exit(f"FAIL: {row['system']} pruning did not shrink the log")
    print(f"{row['system']}: log {s['log_bytes_full']} -> "
          f"{s['log_bytes_pruned']} B, reclaimed {s['pruned_bytes']} B")
ob = report["overbudget"]
if not ob["exceeds_budget"]:
    sys.exit("FAIL: overbudget ledger did not outgrow its RAM budget")
print(f"overbudget: log {ob['log_bytes']} B > budget {ob['budget_bytes']} B")
EOF
  rm -rf "$stodir"
  echo "=== [storage] OK ==="
fi

if [[ "$TRAFFIC" == "1" ]]; then
  echo "=== [traffic] bench_openloop (E20) ==="
  cmake --build build -j "$JOBS" --target bench_openloop
  trafdir="$(mktemp -d)"
  (cd "$trafdir" && "$OLDPWD/build/bench/bench_openloop" > bench_stdout.txt) || {
    echo "FAIL: bench_openloop gates failed" >&2
    tail -n 40 "$trafdir/bench_stdout.txt" >&2
    exit 1
  }
  echo "=== [traffic] reconciliation + saturation + per-class histograms ==="
  python3 - "$trafdir/BENCH_openloop.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = report["sweep"]
systems = {}
for row in rows:
    adm = row["admission"]
    total = (adm["admitted"] + adm["rejected"] + adm["evicted"]
             + adm["backpressured"])
    if not adm["reconciles"] or adm["submitted"] != total:
        sys.exit(f"FAIL: {row['system']} @{row['offered_tps']} tx/s does not "
                 f"reconcile: {adm['submitted']} != {total}")
    systems.setdefault(row["system"], []).append(row)
if len(systems) < 3:
    sys.exit(f"FAIL: swept {sorted(systems)} ledgers, need chain+lattice+tangle")
for system, swept in systems.items():
    top = max(swept, key=lambda r: r["offered_tps"])
    adm = top["admission"]
    if top["fired_tps"] <= top["achieved_tps"]:
        sys.exit(f"FAIL: {system} top point not saturated "
                 f"({top['fired_tps']:.1f} <= {top['achieved_tps']:.1f} tx/s)")
    if adm["evicted"] + adm["backpressured"] == 0:
        sys.exit(f"FAIL: {system} top point shows no admission pressure")
    classes = top["classes"]
    if len(classes) < 2 or any(c["count"] == 0 for c in classes):
        sys.exit(f"FAIL: {system} per-class latency histograms incomplete: "
                 f"{[(c['class'], c['count']) for c in classes]}")
    p99s = " ".join(f"c{c['class']}:{c['p99_s']:.1f}s" for c in classes)
    print(f"{system}: offered {top['fired_tps']:.1f} > achieved "
          f"{top['achieved_tps']:.1f} tx/s, evicted {adm['evicted']}, "
          f"backpressured {adm['backpressured']}, class p99 {p99s}")
EOF
  rm -rf "$trafdir"
  echo "=== [traffic] OK ==="
fi

if [[ "$PERF" == "1" ]]; then
  echo "=== [perf] configure + build (Release) ==="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf -j "$JOBS" --target bench_simcore bench_hotpath
  echo "=== [perf] bench_simcore (fire-order differential + speedup gate) ==="
  perfdir="$(mktemp -d)"
  (cd "$perfdir" && "$OLDPWD/build-perf/bench/bench_simcore")
  echo "=== [perf] bench_hotpath ==="
  (cd "$perfdir" && "$OLDPWD/build-perf/bench/bench_hotpath" >/dev/null)
  python3 - "$perfdir/BENCH_simcore.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
speedup = report["perf"]["speedup_vs_legacy"]
identical = report["deterministic"]["fire_order_identical"]
print(f"slab scheduler: {speedup:.2f}x legacy, fire order identical: {identical}")
if not identical:
    sys.exit("FAIL: fire order diverged from the legacy scheduler")
if speedup < 2.0:
    sys.exit(f"FAIL: schedule/fire speedup {speedup:.2f}x below the 2.0x gate")
EOF
  python3 - "$perfdir/BENCH_hotpath.json" <<'EOF'
import json, sys
micro = json.load(open(sys.argv[1]))["micro"]
dispatched = micro["sha256_mb_per_sec"]
portable = micro["sha256_portable_mb_per_sec"]
if micro["sha256_path"] != "sha-ni":
    print(f"SKIP: SHA-256 gate: no SHA-NI, dispatch runs the portable "
          f"compress ({dispatched:.0f} MB/s)")
    sys.exit(0)
ratio = dispatched / portable
print(f"SHA-256: SHA-NI {dispatched:.0f} MB/s = {ratio:.2f}x portable "
      f"{portable:.0f} MB/s")
if ratio < 3.0:
    sys.exit(f"FAIL: SHA-NI compress {ratio:.2f}x portable, below the 3.0x gate")
EOF
  python3 - "$perfdir/BENCH_hotpath.json" <<'EOF'
import json, sys
attach = json.load(open(sys.argv[1]))["tangle_attach"]
growth = attach["late_over_early"]
print(f"tangle attach ({attach['size']} txs): {attach['early_us']:.2f} us "
      f"early, {attach['late_us']:.2f} us late, late/early {growth:.2f}")
if growth > 2.0:
    sys.exit(f"FAIL: tangle attach late/early {growth:.2f}, above the 2.0 gate")
EOF
  rm -rf "$perfdir"
  echo "=== [perf] OK ==="
fi

if [[ "$LATENCY" == "1" ]]; then
  echo "=== [latency] trace_plot selftest ==="
  latdir="$(mktemp -d)"
  (cd "$latdir" && python3 "$OLDPWD/tools/trace_plot.py" --selftest)
  echo "=== [latency] traced tangle bench -> trace_plot pipeline ==="
  cmake --build build -j "$JOBS" --target bench_throughput_tangle
  (cd "$latdir" && DLT_TRACE=1 "$OLDPWD/build/bench/bench_throughput_tangle" \
    > bench_stdout.txt)
  grep -q "Lifecycle submit->confirm" "$latdir/bench_stdout.txt" || {
    echo "FAIL: bench printed no lifecycle latency summary" >&2; exit 1; }
  (cd "$latdir" && python3 "$OLDPWD/tools/trace_plot.py" \
    TRACE_throughput_tangle.jsonl --out latency_gate)
  # The CDF table must contain real data rows (non-zero confirmed count).
  python3 - "$latdir/latency_gate_cdf.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"submit_to_confirm\s+(\d+)", text)
if not m or int(m.group(1)) == 0:
    sys.exit("FAIL: latency CDF has no confirmed transactions")
print(f"latency CDF: {m.group(1)} confirmed txs")
EOF
  for f in latency_gate_timeline.svg latency_gate_cdf.svg; do
    [[ -s "$latdir/$f" ]] || { echo "FAIL: $f missing or empty" >&2; exit 1; }
  done
  echo "=== [latency] bench_diff direction check ==="
  cat > "$latdir/lat_old.json" <<'EOF'
{"metrics":{"histograms":{"latency.submit_to_confirm":{"count":10,"p99":1.0}}}}
EOF
  cat > "$latdir/lat_new.json" <<'EOF'
{"metrics":{"histograms":{"latency.submit_to_confirm":{"count":5,"p99":2.0}}}}
EOF
  if python3 tools/bench_diff.py "$latdir/lat_old.json" "$latdir/lat_new.json" \
      > "$latdir/lat_diff.txt" 2>&1; then
    echo "FAIL: bench_diff accepted a latency regression" >&2
    cat "$latdir/lat_diff.txt" >&2
    exit 1
  fi
  grep -q "latency.submit_to_confirm.p99" "$latdir/lat_diff.txt" || {
    echo "FAIL: bench_diff did not flag the latency p99 increase" >&2; exit 1; }
  grep -q "latency.submit_to_confirm.count" "$latdir/lat_diff.txt" || {
    echo "FAIL: bench_diff did not flag the confirmed-count drop" >&2; exit 1; }
  rm -rf "$latdir"
  echo "=== [latency] OK ==="
fi

if [[ "$PERFBENCH" == "1" ]]; then
  echo "=== [perfbench] build the benchmark driver, run every workload short ==="
  python3 -m unittest perfbench/test_perfbench.py
  echo "=== [perfbench] OK ==="
fi

if [[ "$FAST" == "0" ]]; then
  run_pass asan build-asan -DDLT_SANITIZE=address
  run_pass ubsan build-ubsan -DDLT_SANITIZE=undefined
fi

echo "All checks passed."
