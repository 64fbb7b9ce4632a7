"""Alternating pairs of benchmark runs from a parent and a change checkout.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload pipeline-sine-n2 --seed 0 --seed 1 --pairs 10 \\
        --tag my_change --claim "job_s on pipeline-sine-n2"

For every workload and seed, pair i runs ``perfbench/run.py`` once in each
checkout, one run at a time, parent first in even pairs and change first in
odd ones.  Each run is untraced and reads its own checkout's ``src/``.  The
result goes to ``BENCH_<tag>.json`` in this repository's root: per workload
and seed, each end-to-end metric's median and inclusive quartiles on both
sides, the pairs the change won (ties count for neither side), the median
change in percent, and every raw run with its pair index and the side that
ran first.  A metric's better direction comes from the change checkout's
``BENCHMARK.json``.  The per-stage seconds that ``perfbench/run.py``
prints for pipeline-sine-n2 (``stage.scan_s`` and so on) are recorded
with each run and summarized the same way, lower being better, so a
pipeline claim shows which stage moved.  Both checkouts' absolute paths
are recorded as well, and the script prints one warning when their lengths
differ: the same code has read up to 2% apart in ``peak_rss_mb`` when run
from two different checkouts.  Equal lengths do not remove that spread:
heap layout alone has moved ``peak_rss_mb`` by up to 1.8% (0.9 MB on
pipeline-sine-n2) between two trees at equal path lengths whose
allocations differ only in order, so a ``peak_rss_mb`` move that small
says nothing about the code.

A metric's change is ``clear`` when the change wins at least 9 of 10
pairs and its median beats the parent's by more than the parent's
interquartile spread, and, for a metric in ``LAYOUT_NOISE``, by more
than the share of the parent's median that heap layout alone moves it
(1.8% for ``peak_rss_mb``).  Each workload and seed also counts, per
side, the runs whose checks failed and the share of operations that
failed; the script exits 1 when a change run fails its checks or fails
more operations than the parent run of its pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 3
HARNESS = (f"python3 perfbench/run.py --workload <w> --seed <s> "
           f"--seconds {SECONDS} --trace 0")
SIDES = ("parent", "change")
# metric -> the relative median move heap layout alone has produced between
# two trees that differ only in allocation order; no smaller move is clear
LAYOUT_NOISE = {"peak_rss_mb": 0.018}


def parse_output(out: str) -> tuple[dict, dict]:
    """The JSON result of one run (its last output line) and the
    ``stage.<name>_s`` seconds it printed (pipeline-sine-n2 only)."""
    lines = out.strip().splitlines()
    stages = {}
    for line in lines[:-1]:
        if line.startswith("stage."):
            name, value, _unit = line.split()
            stages[name] = float(value)
    return json.loads(lines[-1]), stages


def run_once(checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced benchmark run, parsed by parse_output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    return parse_output(out)


def summarize(parent: list[float], change: list[float], better: str,
              noise: float = 0.0) -> dict:
    """Medians, inclusive quartiles, pair wins and the median change of one
    metric; parent[i] and change[i] come from pair i.  A median move of no
    more than noise times the parent's median is never clear."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more complete pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    out = {}
    for side, xs in zip(SIDES, (parent, change)):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out.update({f"{side}_median": round(q2, 4), f"{side}_q1": round(q1, 4),
                    f"{side}_q3": round(q3, 4)})
    med_p, med_c = statistics.median(parent), statistics.median(change)
    out["change_wins"] = f"{wins}/{len(parent)}"
    out["median_change"] = f"{100.0 * (med_c / med_p - 1.0):+.1f}%"
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    out["clear"] = bool(wins >= 0.9 * len(parent) and sign * (med_p - med_c) > q3 - q1
                        and abs(med_c - med_p) > noise * abs(med_p))
    return out


def run_health(parent: list[dict], change: list[dict]) -> dict:
    """Runs whose checks failed and failed operations on each side, and the
    pairs whose change run failed its checks or failed more operations
    than its parent run; parent[i] and change[i] are the rows of pair i."""
    out = {}
    for side, rows in zip(SIDES, (parent, change)):
        failed = sum(r["failed"] for r in rows)
        attempted = sum(r["attempted"] for r in rows)
        out[side] = {"incorrect_runs": sum(not r["correct"] for r in rows),
                     "failed_ops": f"{failed}/{attempted}",
                     "failed_share": round(failed / attempted, 4) if attempted else 0.0}
    out["worse_pairs"] = [c["pair"] for p, c in zip(parent, change)
                          if not c["correct"] or c["failed"] > p["failed"]]
    return out


def machine() -> str:
    import numpy
    import scipy
    return (f"{os.cpu_count()}-vCPU {platform.machine()} machine, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    ap.add_argument("--claim", required=True,
                    help='the claimed metric and workload, or "none: ..."')
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    paths = {side: os.path.abspath(path) for side, path in checkouts.items()}
    if len(paths["parent"]) != len(paths["change"]):
        print(f"warning: the checkout paths differ in length ({len(paths['parent'])} "
              f"and {len(paths['change'])} characters), and peak_rss_mb can move "
              "with the checkout a run starts from; heap layout alone moves it by "
              "up to 1.8% even at equal lengths", file=sys.stderr)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    workloads = {}
    for workload in args.workload:
        for seed in args.seed:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    res, stages = run_once(checkouts[side], workload, seed)
                    row = {"pair": pair, "first": order[0],
                           "failed": res["failed"], "attempted": res["attempted"],
                           "correct": res["correct"]}
                    row.update({k: round(v["value"], 4)
                                for k, v in res["metrics"].items()})
                    row.update({k: round(v, 4) for k, v in stages.items()})
                    runs[side].append(row)
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          + " ".join(f"{k} {row[k]}" for k in better), flush=True)
            # stage times are lower-is-better; summarized when every run has them
            rows = runs["parent"] + runs["change"]
            stage_names = [k for k in rows[0]
                           if k.startswith("stage.") and all(k in r for r in rows)]
            how_of = {**better, **dict.fromkeys(stage_names, "lower")}
            summary = {name: summarize([r[name] for r in runs["parent"]],
                                       [r[name] for r in runs["change"]], how,
                                       LAYOUT_NOISE.get(name, 0.0))
                       for name, how in how_of.items()}
            workloads[f"{workload} seed {seed}"] = {
                "summary": summary,
                "health": run_health(runs["parent"], runs["change"]),
                "runs": runs}

    seeds = ", ".join(str(s) for s in args.seed)
    doc = {
        "harness": HARNESS,
        "machine": machine(),
        "checkouts": paths,
        "protocol": (
            f"{args.pairs} pairs of parent and change runs per workload and seed "
            f"(seeds {seeds}), untraced, each side from its own checkout, run one "
            "at a time; the side that runs first alternates (parent first in even "
            "pairs). Quartiles are statistics.quantiles(method='inclusive'); a "
            "pair with equal values counts as a win for neither side. A change "
            "is clear when it wins at least 9/10 of the pairs and its median "
            "beats the parent's by more than the parent's interquartile range "
            "and, for peak_rss_mb, by more than 1.8% of the parent's median "
            "(what heap layout alone moves it)."),
        "claim": args.claim,
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    worse = False
    for key, w in workloads.items():
        for name, s in w["summary"].items():
            print(f"{key} {name}: parent {s['parent_median']} "
                  f"[{s['parent_q1']}, {s['parent_q3']}]  change {s['change_median']} "
                  f"[{s['change_q1']}, {s['change_q3']}]  wins {s['change_wins']}  "
                  f"{s['median_change']}" + ("  clear" if s["clear"] else ""))
        health = w["health"]
        print(f"{key} runs: " + "  ".join(
            f"{side} {health[side]['incorrect_runs']} incorrect, "
            f"{health[side]['failed_ops']} operations failed" for side in SIDES))
        if health["worse_pairs"]:
            worse = True
            print(f"{key}: the change run is incorrect or fails more operations "
                  f"in pairs {health['worse_pairs']}", file=sys.stderr)
    print(f"wrote {path}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
