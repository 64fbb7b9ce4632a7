"""shellwave benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload family-sine-n2 --seed 0 \\
        --seconds 3 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
next to this directory, never from an installed copy.

A run measures set-up (``setup_s``: the median of several fresh
interpreters that import shellwave, load the config and make one warm-up
call), then repeats the workload's job in-process.  The number of jobs is
fixed by ``--seconds`` and the workload's nominal job time (at least
one), not by the clock, so ``attempted`` and ``failed`` depend only on the
seed and two runs with the same seed agree on them.  Every job's
scientific output is checked (see checks.py).  With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` the jobs run
under the span tracer (tracer.py) and the per-layer metrics, as means per
job, are reported instead.  Human-readable lines come first; the last line
of standard output is the JSON result.  Run details and spans are written
to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
SETUP_SAMPLES = 3
# wall time of one untraced job on a 2-vCPU x86_64 machine, seed 0
NOMINAL_JOB_S = {"family-sine-n2": 25.0, "pipeline-sine-n2": 65.0,
                 "audit-sine-n2": 0.25}
WORKLOADS = tuple(NOMINAL_JOB_S)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import shellwave
    from it; exit with an error when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "shellwave", "cli.py")):
        raise SystemExit(f"perfbench: no shellwave sources in {SRC}")
    sys.path.insert(0, SRC)
    import shellwave.cli
    if not os.path.abspath(shellwave.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: shellwave imported from "
                         f"{shellwave.cli.__file__}, not from {SRC}")


def measure_setup(seed: int, workdir: str) -> float:
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, str(seed), workdir], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import checks
    import tracer
    import workloads

    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-",
                               dir=RUNS)
    try:
        setup_s = measure_setup(args.seed, workdir)
        inputs = workloads.make_inputs(ROOT, workdir, args.seed)
        workloads.warm_up(inputs)
        job = workloads.JOBS[args.workload]
        tr = tracer.Tracer() if args.trace else None

        n_jobs = max(1, int(args.seconds / NOMINAL_JOB_S[args.workload]))
        times, outcomes = [], []
        for _ in range(n_jobs):
            t0 = time.perf_counter()
            if tr is None:
                outcome = job(inputs, workdir)
            else:
                with tr.active():
                    outcome = job(inputs, workdir)
            times.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        spec = inputs.cfg.spec()
        summaries = [checks.summarize(args.workload, o, spec) for o in outcomes]
        results = {}
        for s in summaries:
            found = checks.reference_free(s)
            if args.seed == 0:
                found += checks.against_reference(
                    s, reference["workloads"][args.workload],
                    reference["tolerances"])
            for name, ok in found:
                results[name] = results.get(name, True) and ok
        if tr is not None:
            for name, ok in checks.against_trace(
                    args.workload, tr, summaries, len(inputs.cfg.schedule)):
                results[name] = ok
        check_failures = sorted(k for k, ok in results.items() if not ok)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    job_s = statistics.median(times)
    if tr is None:
        metrics = {
            "job_s": (job_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {k: (v, _unit(k)) for k, v in
                   tracer.layer_metrics(tr, len(outcomes)).items()}
        metrics["trace.job_s"] = (job_s, "s")

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"jobs {len(outcomes)}  job_s {job_s:.4f} s "
        f"(min {min(times):.4f}, max {max(times):.4f})",
        f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} operations)",
        f"check_failures {len(check_failures)} of {len(results)} checks"
        + "".join(f"\n  FAILED: {name}" for name in check_failures),
    ]
    if outcomes[0].stage_s:
        for stage in ("scan", "solve", "continue", "normalize"):
            med = statistics.median(o.stage_s[stage] for o in outcomes)
            lines.append(f"stage.{stage}_s {med:.4f} s")
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    print("\n".join(lines))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RUNS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"job_times": times, "setup_s": setup_s,
                   "check_failures": check_failures, "summary": summaries[0],
                   "values": outcomes[0].values,
                   "stage_s": [o.stage_s for o in outcomes]},
                  fh, indent=1, default=str)
    if tr is not None:
        tr.write(os.path.join(RUNS, tag + ".spans.jsonl"))

    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
