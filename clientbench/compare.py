#!/usr/bin/env python3
"""Compare two versions of slidb on the client benchmark.

Collect alternating pairs of runs, one checkout per side:

    python3 clientbench/compare.py run --parent ../parent --change . \\
        --workload tpcb --seed 101 --out tpcb.jsonl

then judge every end-to-end metric of BENCHMARK.json, per workload:

    python3 clientbench/compare.py report tpcb.jsonl [more.jsonl ...]

Each run is as long as run_seconds of BENCHMARK.json, the length its
bounds were measured for.

Rule (choosing-metrics, section 8): with at least 10 pairs, a metric
improved when the change wins at least 9 of every 10 pairs (ties count for
neither side), the medians differ by more than the parent's inter-quartile
range, and the change fails no larger share of its operations than the
parent. It regressed when the change's median is worse than the parent's by
more than the metric's bound. Where either side's spread (inter-quartile
range over median) exceeds the bound, the metric is unresolved unless every
change run beats every parent run.

Exit status 1 when any metric regressed, when any run of the change failed
its output checks or gave no result, or when a workload has fewer than 10
complete pairs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def judge(parent, change, direction, bound, more_failures=False):
    """Verdict for one metric on one workload.

    parent and change are equal-length lists; element i of each came from
    pair i. more_failures says the change failed a larger share of its
    operations than the parent, which rules out a gain. Returns a dict with
    the verdict and the figures behind it.
    """
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    spread = max(p_iqr / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c, direction))
    all_better = all(better(c, p, direction)
                     for c in change for p in parent)
    worse_by = (p_med - c_med if direction == "higher" else c_med - p_med)
    out = {
        "pairs": n, "wins": wins, "losses": losses,
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "spread": spread, "bound": bound,
    }
    if n < MIN_PAIRS:
        out["verdict"] = "too few pairs"
    elif spread > bound and not all_better:
        out["verdict"] = "unresolved"
    elif wins >= WIN_SHARE * n and better(c_med, p_med, direction) and \
            abs(c_med - p_med) > p_iqr:
        out["verdict"] = ("no gain: more failures" if more_failures
                          else "improved")
    elif worse_by > bound * abs(p_med):
        out["verdict"] = "regressed"
    else:
        out["verdict"] = "within bound"
    return out


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report(paths, spec_path=SPEC_PATH):
    metrics, _ = load_spec(spec_path)
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    runs.setdefault(r["workload"], []).append(r)
    status = 0
    for workload in sorted(runs):
        by_pair = {}
        broken = {"parent": 0, "change": 0}
        for r in runs[workload]:
            if r["result"] is not None and r["result"].get("correct"):
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
            else:
                broken[r["side"]] += 1
        pairs = [by_pair[k] for k in sorted(by_pair)
                 if {"parent", "change"} <= by_pair[k].keys()]
        p_fail = fail_share([x["parent"] for x in pairs])
        c_fail = fail_share([x["change"] for x in pairs])
        print(f"== {workload}: {len(pairs)} complete pairs; runs failing "
              f"their checks or giving no result: parent "
              f"{broken['parent']}, change {broken['change']}; failed "
              f"operations: parent {p_fail:.3%}, change {c_fail:.3%}")
        if broken["change"]:
            print("FAILED: runs of the change failed their checks or gave "
                  "no result")
            status = 1
        if len(pairs) < MIN_PAIRS:
            print(f"FAILED: too few pairs ({len(pairs)} < {MIN_PAIRS})")
            status = 1
            continue
        print(f"{'metric':<16} {'parent med [q1,q3]':>30} "
              f"{'change med [q1,q3]':>30} {'delta':>8} {'wins':>6} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, m in metrics.items():
            p = [x["parent"]["metrics"][name]["value"] for x in pairs]
            c = [x["change"]["metrics"][name]["value"] for x in pairs]
            j = judge(p, c, m["better"], m["bound"],
                      more_failures=c_fail > p_fail)
            if j["verdict"] == "regressed":
                status = 1
            delta = ((j["change_median"] - j["parent_median"]) /
                     abs(j["parent_median"]) if j["parent_median"] else 0.0)
            pm = (f"{j['parent_median']:.5g} "
                  f"[{j['parent_q1']:.4g}, {j['parent_q3']:.4g}]")
            cm = (f"{j['change_median']:.5g} "
                  f"[{j['change_q1']:.4g}, {j['change_q3']:.4g}]")
            wins = f"{j['wins']}/{j['pairs']}"
            print(f"{name:<16} {pm:>30} {cm:>30} {delta:>+8.2%} {wins:>6} "
                  f"{j['spread']:>7.3f} {j['bound']:>6.2f}  {j['verdict']}")
    return status


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("clientbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=1200, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def collect(args):
    _, spec = load_spec(SPEC_PATH)
    seconds = spec["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            seed = args.seed + i
            # Alternate which side runs first, so drift over time (a warming
            # or cooling host) falls on both sides equally.
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_one(checkout, args.workload, seed, seconds)
                rec = {"workload": args.workload, "pair": i, "side": side,
                       "seed": seed, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"pair {i} {side}: "
                      f"{'ok' if result and result.get('correct') else 'FAILED'}",
                      file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two versions on the client benchmark.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="collect alternating pairs of runs")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS,
                   help=f"at least {MIN_PAIRS}")
    r.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair; pair i uses seed + i")
    r.add_argument("--out", required=True, help="JSON-lines file to append")
    p = sub.add_parser("report", help="judge collected pairs")
    p.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.cmd == "run":
        if args.pairs < MIN_PAIRS:
            parser.error(f"--pairs must be at least {MIN_PAIRS}")
        return collect(args)
    return report(args.files)


if __name__ == "__main__":
    sys.exit(main())
