"""Correctness checks behind ``check_failures``.

Each workload's outcome is first reduced to one summary of comparable
values (per family member, in decreasing eps).  The reference-free checks
run at every seed; at seed 0 the summary is also compared with
``reference.json``, recorded from the shipped configs with tolerances
whose reasons are stored next to them.  Every entry of the
returned list is one check, and a check fails if any member violates it.
"""

from __future__ import annotations

import dataclasses
import math

from shellwave import normalization
from shellwave.exceptions import ShellwaveError
from workloads import STAGES


def summarize(workload: str, outcome, spec) -> dict:
    v = outcome.values
    if workload == "family-sine-n2":
        recs = [normalization.to_original(f, spec) for f in outcome.fulls]
        records = [dataclasses.asdict(r) for r in recs]
        try:
            scaling = list(normalization.scaling_law_check(recs).ratios)
        except ShellwaveError:
            scaling = None
        members = v["members"]
        shrink = [m["refinement"] for m in members
                  if not isinstance(m["refinement"], str)]
        alpha = [abs(m["alpha"]) / m["zdot_norm"] for m in members]
    elif workload == "pipeline-sine-n2":
        records = v["records"]
        scaling = v["scaling"]["ratios"] if v["scaling"] else None
        members = v["members"]
        shrink = [v["solve"]["defect_shrink"]] if v["solve"] else []
        alpha = None
    else:
        records = v["records"]
        scaling = (v["scaling"]["ratios"] if isinstance(v["scaling"], dict)
                   else None)
        members = [m for m in v["members"] if "error" not in m]
        shrink = [m["refinement"] for m in members
                  if not isinstance(m["refinement"], str)]
        alpha = None
    return {
        "completed": bool(v["completed"]),
        "rho_star": ([m["rho_star"] for m in members]
                     if workload != "audit-sine-n2" else None),
        "t_value": [m["t_value"] for m in members],
        "defects": [[m["pohozaev_1"], m["pohozaev_2"]] for m in members],
        "newton_iters": [m["newton_iters"] for m in members],
        "evaluations": [m.get("evaluations", 0) for m in members],
        "alpha_over_zdot": alpha,
        "shrink": shrink,
        "mass_check": [r["mass_check"] for r in records],
        "rho": [r["rho"] for r in records],
        "rho_orig": [r["rho_orig"] for r in records],
        "a": [r["a"] for r in records],
        "scaling_ratios": scaling,
        "passes": v.get("passes"),
    }


def _increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


def reference_free(s: dict) -> list[tuple[str, bool]]:
    return [
        ("family completed", s["completed"]),
        ("max(pohozaev_1, pohozaev_2) <= 1e-6",
         all(max(d) <= 1e-6 for d in s["defects"])),
        ("|alpha(rho*)| <= 1e-9 ||zdot||",
         s["alpha_over_zdot"] is None
         or all(x <= 1e-9 for x in s["alpha_over_zdot"])),
        ("refinement shrink >= 3.5",
         all(min(r) >= 3.5 for r in s["shrink"])),
        ("|mass_check - 1| <= 1e-8",
         all(abs(m - 1.0) <= 1e-8 for m in s["mass_check"])),
        ("rho, rho_orig, a increase",
         all(_increasing(s[k]) for k in ("rho", "rho_orig", "a"))),
    ]


def _close(got, want, rel) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=rel, abs_tol=0.0) for g, w in zip(got, want))


def against_reference(s: dict, ref: dict, tol: dict) -> list[tuple[str, bool]]:
    """Seed-0 comparison; ``tol`` holds the tolerances and their reasons."""
    out = [(f"{key} matches reference", _close(s[key], ref[key], tol[key]["rel"]))
           for key in ("rho_star", "t_value", "a", "scaling_ratios")]
    d_got, d_ref = s["defects"], ref["defects"]
    out.append(("defects match reference", len(d_got) == len(d_ref) and all(
        abs(g - w) <= tol["defects"]["abs"]
        for gg, ww in zip(d_got, d_ref) for g, w in zip(gg, ww))))
    if ref["passes"] is not None:
        flips = [k for k, flag in ref["passes"].items()
                 if flag and not (s["passes"] or {}).get(k, False)]
        out.append(("no ledger pass flag flips true -> false", not flips))
    return out


def _expected_calls(workload: str, members: int) -> dict:
    """Span counts per job that do not depend on any solve succeeding; a
    binding the tracer missed shows up as a shortfall here."""
    if workload == "family-sine-n2":
        return {"full_solver.continuation_in_eps": 1}
    if workload == "pipeline-sine-n2":
        return {"full_solver.continuation_in_eps": 3,
                "potentials.find_critical_radius": 1,
                "config.load_config": len(STAGES),
                **{f"cli.stage.{stage}": 1 for stage in STAGES}}
    return {"potentials.find_critical_radius": members,
            "reduction.solve_projected": 0}


def against_trace(workload: str, tr, summaries, members: int
                  ) -> list[tuple[str, bool]]:
    """Traced counts against the program's own counts."""
    spans = tr.spans
    calls: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    jobs = len(summaries)
    out = [(f"trace: {name} spans == {n} per job", calls.get(name, 0) == n * jobs)
           for name, n in _expected_calls(workload, members).items()]
    if workload == "pipeline-sine-n2":
        out.append(("trace: cli's write_* bindings traced",
                    any(name.startswith("serialize.") for name in calls)))
    # solves inside find_rho_star calls that returned a RhoStarResult
    evaluations = sum((s.attrs or {}).get("evaluations", 0) for s in spans
                      if s.name == "reduction.find_rho_star")
    inside = 0
    for i, s in enumerate(spans):
        if s.name == "reduction.solve_projected":
            j = tr.ancestor(i, "reduction.find_rho_star")
            inside += j >= 0 and "evaluations" in (spans[j].attrs or {})
    out.append(("trace: sum of RhoStarResult.evaluations == solve_projected "
                "calls inside find_rho_star", evaluations == inside))
    if workload == "family-sine-n2":
        program = sum(sum(s["evaluations"]) for s in summaries)
        out.append(("trace: members' RhoStarResult.evaluations == solve_projected "
                    "calls inside find_rho_star", program == inside))
    # the solves whose FullSolution reaches the summaries: not the
    # refinement re-solves, and in the pipeline only the continue stage's
    traced_iters = sum(
        (s.attrs or {}).get("newton_iters", 0) for i, s in enumerate(spans)
        if s.name == "full_solver.solve_full"
        and not tr.under(i, "full_solver.pohozaev_refinement_check")
        and (workload != "pipeline-sine-n2" or tr.under(i, "cli.stage.continue")))
    program_iters = sum(sum(s["newton_iters"]) for s in summaries)
    out.append(("trace: sum of FullSolution.newton_iters == traced solve_full "
                "newton_iters", traced_iters == program_iters))
    return out
