"""The three benchmark workloads, each driven through shellwave's public API.

Every job returns the operations it attempted and failed, and the
scientific values the checks compare.  Calls go through module attributes
(``full_solver.solve_full``, not a name imported here) so that a traced
run sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import time

import numpy as np

from shellwave import (ansatz, cli, full_solver, normalization, potentials,
                       reduction)
from shellwave.config import RunConfig, load_config
from shellwave.exceptions import ShellwaveError

CONFIG = os.path.join("configs", "sine_n2.json")
# the order of scripts/run_sine_sweep.py
STAGES = ("ground", "spectrum", "mpot", "scan", "solve", "continue",
          "normalize", "report")


@dataclasses.dataclass
class Inputs:
    cfg: RunConfig
    config_path: str   # what the CLI stages read
    seed: int


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    values: dict
    stage_s: dict = dataclasses.field(default_factory=dict)
    fulls: list = dataclasses.field(default_factory=list)  # for the checks


def perturbed_schedule(schedule, seed: int) -> tuple:
    """Seed 0 keeps the schedule; any other seed scales each entry by
    1 + delta with |delta| <= 0.01 from numpy's default_rng(seed)."""
    sched = np.asarray(schedule, dtype=float)
    if seed != 0:
        delta = np.random.default_rng(seed).uniform(-0.01, 0.01, sched.size)
        sched = sched * (1.0 + delta)
    ratios = sched[1:] / sched[:-1]
    if np.any(ratios >= 1.0) or np.any(ratios < 0.7):
        raise ValueError(f"seed {seed} breaks the schedule rules: {sched}")
    return tuple(float(e) for e in sched)


def make_inputs(root: str, workdir: str, seed: int) -> Inputs:
    path = os.path.join(root, CONFIG)
    cfg = load_config(path)
    if seed != 0:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["schedule"] = list(perturbed_schedule(cfg.schedule, seed))
        path = os.path.join(workdir, f"sine_n2_seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        cfg = load_config(path)
    return Inputs(cfg=cfg, config_path=path, seed=seed)


def warm_up(inputs: Inputs) -> None:
    """One projected solve at the first family member's bracket centre."""
    cfg = inputs.cfg
    eps = float(cfg.schedule[0])
    rho = 0.5 * (cfg.t_bracket[0] + cfg.t_bracket[1]) / eps
    params = ansatz.AnsatzParams.make(cfg.n, cfg.p, eps, rho, cfg.spec(),
                                      cfg.C1, cfg.C2, gamma=cfg.gamma,
                                      eps_max=eps)
    grid = ansatz.grid_for(params, cfg.grid.h_reduce)
    reduction.solve_projected(params, cfg.spec(), grid)


# ------------------------------------------------------------- family

def family_job(inputs: Inputs, workdir: str) -> Outcome:
    """The verified family: continuation, then a refinement audit per member."""
    cfg = inputs.cfg
    spec = cfg.spec()
    res = full_solver.continuation_in_eps(
        cfg.n, cfg.p, spec, cfg.schedule, cfg.C1, cfg.C2,
        tuple(cfg.t_bracket), gamma=cfg.gamma, trunc_K=cfg.trunc_K,
        h_reduce=cfg.grid.h_reduce, h_solve=cfg.grid.h_solve)
    shrink = []
    for m in res.members:
        try:
            _, _, ratios = full_solver.pohozaev_refinement_check(
                m.full, spec, trunc_K=cfg.trunc_K,
                tol_coeff=cfg.tolerances.solve_tol_coeff)
            shrink.append(list(ratios))
        except ShellwaveError as exc:
            shrink.append(type(exc).__name__)
    failed_members = len(cfg.schedule) - len(res.members)
    failed_audits = sum(isinstance(s, str) for s in shrink)
    values = {
        "completed": res.completed,
        "failure": res.failure,
        "members": [{
            "eps": m.eps,
            "rho_star": m.rho_star,
            "t_value": m.t_value,
            "alpha": m.reduced.alpha,
            "zdot_norm": m.reduced.solution.zdot_norm,
            "evaluations": m.reduced.evaluations,
            "pohozaev_1": m.full.pohozaev_1,
            "pohozaev_2": m.full.pohozaev_2,
            "newton_iters": m.full.newton_iters,
            "collocation_nodes": m.full.grid.size,
            "reduction_nodes": m.reduced.solution.omega.size,
            "refinement": s,
        } for m, s in zip(res.members, shrink)],
    }
    return Outcome(attempted=len(cfg.schedule) + len(res.members),
                   failed=failed_members + failed_audits, values=values,
                   fulls=[m.full for m in res.members])


# ----------------------------------------------------------- pipeline

def pipeline_job(inputs: Inputs, workdir: str) -> Outcome:
    """All eight CLI stages into a fresh output directory, which is then
    read back and removed (milliseconds, inside the job's time)."""
    out = os.path.join(workdir, f"pipeline-{time.time_ns()}")
    stage_s, stage_rc = {}, {}
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in STAGES:
            t0 = time.perf_counter()
            stage_rc[stage] = cli.main(
                [stage, "--config", inputs.config_path, "--out", out])
            stage_s[stage] = time.perf_counter() - t0
    values = _read_pipeline(out, stage_rc)
    shutil.rmtree(out)
    cfg = inputs.cfg
    failed = sum(rc != 0 for rc in stage_rc.values())
    failed += cfg.rho_samples - values["scan_ok"]
    failed += len(cfg.schedule) - len(values["members"])
    attempted = len(STAGES) + cfg.rho_samples + len(cfg.schedule)
    return Outcome(attempted=attempted, failed=failed, values=values,
                   stage_s=stage_s)


def _read_json(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_pipeline(out: str, stage_rc: dict) -> dict:
    ok = []
    scan = os.path.join(out, "scan.csv")
    if os.path.exists(scan):
        with open(scan, encoding="utf-8") as fh:
            ok = [line.rsplit(",", 1)[1] == "true"
                  for line in fh.read().splitlines()[1:]]
    family = _read_json(os.path.join(out, "family.json")) or {}
    passes = {}
    ledger = os.path.join(out, cli.LEDGER_NAME)
    if os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                for name, flag in rec["passes"].items():
                    passes[f"{rec['subcommand']}/{name}"] = flag
    return {
        "stage_rc": stage_rc,
        "scan_ok": sum(ok),
        "completed": family.get("completed", False),
        "members": family.get("members", []),
        "solve": _read_json(os.path.join(out, "solve.json")),
        "records": _read_json(os.path.join(out, "records.json")) or [],
        "scaling": _read_json(os.path.join(out, "scaling.json")),
        "passes": passes,
    }


# -------------------------------------------------------------- audit

def audit_job(inputs: Inputs, workdir: str) -> Outcome:
    """Full solves seeded from scratch at each critical radius, audited,
    with no projected solves."""
    cfg = inputs.cfg
    spec = cfg.spec()
    sched = cfg.schedule
    tol = cfg.tolerances.solve_tol_coeff
    members, records, failed = [], [], 0
    for eps in sched:
        eps = float(eps)
        member = {"eps": eps}
        members.append(member)
        try:
            crit = potentials.find_critical_radius(
                spec, cfg.n, cfg.p, eps, tuple(cfg.t_bracket),
                beta_floor=cfg.beta_floor)
            params = ansatz.AnsatzParams.make(
                cfg.n, cfg.p, eps, crit.t_eps / eps, spec, cfg.C1, cfg.C2,
                gamma=cfg.gamma, eps_max=float(sched[0]))
            grid = ansatz.grid_for(params, cfg.grid.h_solve)
            seed = ansatz.build_z(params, spec, grid)
            full = full_solver.solve_full(cfg.n, cfg.p, eps, spec, seed, grid,
                                          trunc_K=cfg.trunc_K)
        except ShellwaveError as exc:
            member["error"] = type(exc).__name__
            failed += 4  # the solve and its three audits
            continue
        member.update({
            "t_value": crit.t_eps,
            "pohozaev_1": full.pohozaev_1,
            "pohozaev_2": full.pohozaev_2,
            "newton_iters": full.newton_iters,
            "collocation_nodes": grid.size,
        })
        audits = (
            ("refinement", lambda: list(full_solver.pohozaev_refinement_check(
                full, spec, trunc_K=cfg.trunc_K, tol_coeff=tol)[2])),
            ("tail_rel_err", lambda: full_solver.tail_decay_check(full, spec)[2]),
            ("asymptotic_rel_err", lambda: [
                row.rel_err for row in full_solver.asymptotic_terms_check(full, spec)
                if not row.skipped]),
        )
        for key, audit in audits:
            try:
                member[key] = audit()
            except ShellwaveError as exc:
                member[key] = type(exc).__name__
                failed += 1
        records.append(normalization.to_original(full, spec))
    family = {}
    for key, report in (
            ("trends", normalization.necessary_conditions_report),
            ("scaling", normalization.scaling_law_check)):
        try:
            family[key] = dataclasses.asdict(report(records))
        except ShellwaveError as exc:
            family[key] = type(exc).__name__
            failed += 1
    values = {
        "completed": len(records) == len(sched),
        "members": members,
        "records": [dataclasses.asdict(r) for r in records],
        **family,
    }
    return Outcome(attempted=4 * len(sched) + 2, failed=failed, values=values)


JOBS = {
    "family-sine-n2": family_job,
    "pipeline-sine-n2": pipeline_job,
    "audit-sine-n2": audit_job,
}
