#!/usr/bin/env python3
"""Alternating perfbench pairs: parent checkout against change checkout.

    tools/perfbench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds 1-10
    tools/perfbench_pairs.py --selftest

Each pair runs `python3 perfbench/run.py --trace 0` once in each checkout
on one seed, back to back, for the change checkout's BENCHMARK.json
`run_seconds` on both sides. The seed picks the order: the parent runs
first on even seeds and the change on odd ones, so any run of
consecutive seeds is half change-first, however it is split across
invocations. One short run per side first builds its dltbench binary
(each checkout under its own .bench_build; CARGO_TARGET_DIR is dropped
so the two never share a build tree) and warms the page cache; it is not
counted. Every pair's values are printed as it finishes.

For every end-to-end metric in the change checkout's BENCHMARK.json it
prints each side's median and quartiles, how many pairs the change won
(ties count for neither side) and one verdict:

    equal       every pair read the same value
    better      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range: a
                gain that may be claimed
    WORSE       the change's median is worse than the parent's by more
                than the metric's bound
    unresolved  a side's interquartile range, relative to its median, is
                wider than the bound, and not every change run beats every
                parent run
    within bound  none of the above

It also compares the failed share of operations and counts runs whose
result says `correct: false`. Exit status: 0 when no metric is WORSE and
the change fails no larger share and has no more incorrect runs, 1
otherwise, 2 when a run produced no result. The tool only reads
BENCHMARK.json and runs perfbench/run.py; it changes neither.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    """'1-10' or '1,3,5' or a mix ('1-3,7') -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(lo))
    return seeds


def pair_order(seed):
    """Which side runs first on `seed`: the parent on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def benchmark_spec(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def parse_result(stdout):
    """The JSON object on run.py's last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_side(checkout, workload, seed, seconds, short=False):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if short:
        cmd.append("--short")
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    return parse_result(proc.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better_than(a, b, higher):
    return a > b if higher else a < b


def summarize(spec, pairs):
    """One row per end-to-end metric over `pairs`, a list of
    {"parent": result, "change": result} dicts."""
    rows = []
    n = len(pairs)
    for metric in spec:
        name = metric["name"]
        higher = metric["better"] == "higher"
        bound = metric["bound"]
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        med = {side: statistics.median(vals[side]) for side in SIDES}
        quart = {side: quartiles(vals[side]) for side in SIDES}
        wins = sum(better_than(c, p, higher)
                   for p, c in zip(vals["parent"], vals["change"]))
        ties = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
        base = med["parent"]
        delta = (med["change"] - base) / base if base else 0.0
        worse_by = -delta if higher else delta
        parent_iqr = quart["parent"][1] - quart["parent"][0]
        spread = max((quart[s][1] - quart[s][0]) / abs(med[s])
                     if med[s] else 0.0 for s in SIDES)
        all_better = all(better_than(c, p, higher)
                         for c in vals["change"] for p in vals["parent"])
        if ties == n:
            verdict = "equal"
        elif (wins * 10 >= 9 * n and
              better_than(med["change"], med["parent"], higher) and
              abs(med["change"] - med["parent"]) > parent_iqr):
            verdict = "better"
        elif worse_by > bound:
            verdict = "WORSE"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({"metric": name, "unit": metric["unit"],
                     "parent": (med["parent"],) + quart["parent"],
                     "change": (med["change"],) + quart["change"],
                     "delta": delta, "bound": bound, "wins": wins,
                     "ties": ties, "pairs": n, "verdict": verdict})
    return rows


def failed_share(pairs, side):
    attempted = sum(p[side]["attempted"] for p in pairs)
    failed = sum(p[side]["failed"] for p in pairs)
    return failed / attempted if attempted else 0.0


def fmt(value):
    if abs(value) >= 1000:
        return "{:,.0f}".format(value)
    return "{:.4g}".format(value)


def report(workload, rows, pairs, out=sys.stdout):
    out.write("| workload | metric | parent median [q1-q3] | change median "
              "[q1-q3] | delta | bound | change won | verdict |\n")
    out.write("|---|---|---|---|---|---|---|---|\n")
    for r in rows:
        side = {s: "%s [%s-%s]" % tuple(fmt(v) for v in r[s])
                for s in SIDES}
        out.write("| %s | %s | %s | %s | %+.1f%% | %.0f%% | %d/%d | %s |\n" % (
            workload, r["metric"], side["parent"], side["change"],
            100 * r["delta"], 100 * r["bound"], r["wins"], r["pairs"],
            r["verdict"]))
    shares = {s: failed_share(pairs, s) for s in SIDES}
    wrong = {s: sum(not p[s]["correct"] for p in pairs) for s in SIDES}
    out.write("failed share: parent %.4f, change %.4f; incorrect runs: "
              "parent %d, change %d\n" % (shares["parent"], shares["change"],
                                          wrong["parent"], wrong["change"]))
    bad = (any(r["verdict"] == "WORSE" for r in rows) or
           shares["change"] > shares["parent"] or
           wrong["change"] > wrong["parent"])
    return 1 if bad else 0


def run_pairs(args):
    benchmark = benchmark_spec(args.change)
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    for side in SIDES:
        if run_side(checkouts[side], args.workload, 1, 1, short=True) is None:
            print("perfbench_pairs: %s warm-up run failed" % side,
                  file=sys.stderr)
            return 2
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        pair = {"seed": seed, "first": pair_order(seed)[0]}
        for side in pair_order(seed):
            result = run_side(checkouts[side], args.workload, seed, seconds)
            if result is None:
                print("perfbench_pairs: %s seed %d gave no result" %
                      (side, seed), file=sys.stderr)
                return 2
            pair[side] = result
        pairs.append(pair)
        print("pair %d seed %d %s-first: %s" % (
            i + 1, seed, pair["first"], ", ".join(
                "%s %s -> %s" % (m["name"],
                                 fmt(pair["parent"]["metrics"][m["name"]]
                                     ["value"]),
                                 fmt(pair["change"]["metrics"][m["name"]]
                                     ["value"]))
                for m in spec)), flush=True)
    return report(args.workload, summarize(spec, pairs), pairs)


def canned(metrics, failed=0):
    """A result line as run.py prints it."""
    return json.dumps({"correct": True, "attempted": 1000, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}})


def selftest():
    spec = [
        {"name": "fast", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "slow", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "same", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "noisy", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    orders = [pair_order(seed) for seed in range(1, 11)]
    assert sum(o[0] == "change" for o in orders) == 5
    assert all(o[0] != n[0] for o, n in zip(orders, orders[1:]))
    assert parse_result("# banner\nnot json") is None
    pairs = []
    for i in range(10):
        noise = (-1) ** i * 0.15
        parent = canned({"fast": 7000 + 50 * i, "slow": 20000 + 10 * i,
                         "same": 0.175, "noisy": 1.0 + noise, "rss": 166.0})
        change = canned({"fast": 10000 + 40 * i, "slow": 14000 + 10 * i,
                         "same": 0.175, "noisy": 1.0 - noise,
                         "rss": 165.0 + (i % 2)},
                        failed=1 if i == 0 else 0)
        pairs.append({"parent": parse_result("# log\n" + parent),
                      "change": parse_result(change)})
    rows = {r["metric"]: r for r in summarize(spec, pairs)}
    assert rows["fast"]["verdict"] == "better", rows["fast"]
    assert rows["fast"]["wins"] == 10
    assert rows["slow"]["verdict"] == "WORSE", rows["slow"]
    assert rows["same"]["verdict"] == "equal", rows["same"]
    assert rows["noisy"]["verdict"] == "unresolved", rows["noisy"]
    assert rows["rss"]["verdict"] == "within bound", rows["rss"]
    assert rows["rss"]["ties"] == 5 and rows["rss"]["wins"] == 5

    text = io.StringIO()
    code = report("canned", list(rows.values()), pairs, out=text)
    assert code == 1, "a WORSE metric and a larger failed share fail"
    assert "| canned | fast |" in text.getvalue()
    assert "10/10 | better |" in text.getvalue()
    del rows["slow"]
    pairs[0]["change"]["failed"] = 0
    assert report("canned", list(rows.values()), pairs, io.StringIO()) == 0
    pairs[0]["change"]["correct"] = False
    assert report("canned", list(rows.values()), pairs, io.StringIO()) == 1
    print("selftest ok")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", help="a BENCHMARK.json workload name")
    ap.add_argument("--seeds", default="1-10",
                    help="one pair per seed: '1-10', '1,3,5' (default 1-10)")
    ap.add_argument("--selftest", action="store_true",
                    help="check the summary on canned result lines and exit")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
