"""Command-line front end: stage pipeline, artifacts, run ledger.

Each subcommand runs one stage of the experiment pipeline against a config
file, writes CSV/JSON artifacts plus two-column plot data (and small native
SVG line plots) into the output directory, and appends a RunRecord line to
``runs.jsonl``.  Everything numeric is controlled by the config; repeated
runs with the same config produce byte-identical data files.

Exit codes: 0 success, 2 invalid configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzParams
from .config import RunConfig, load_config
from .exceptions import ConfigError, ShellwaveError, SolverError
from .full_solver import (
    asymptotic_terms_check,
    continuation_in_eps,
    pohozaev_refinement_check,
    tail_decay_check,
)
from .ground_state import GroundStateProfile, ground_state_constants, nondegeneracy_report
from .normalization import (
    necessary_conditions_report,
    scaling_law_check,
    to_original,
)
from .potentials import eval_M, find_critical_radius
from .reduction import reduced_energy_scan
from .serialize import to_plain, write_csv, write_json, write_plot_data, write_svg

LEDGER_NAME = "runs.jsonl"


@dataclass(frozen=True)
class RunRecord:
    subcommand: str
    config_hash: str
    outputs: dict
    wall_times: dict
    passes: dict


def _append_ledger(outdir: str, record: RunRecord) -> None:
    os.makedirs(outdir, exist_ok=True)
    line = json.dumps(to_plain(dataclasses.asdict(record)), sort_keys=True)
    with open(os.path.join(outdir, LEDGER_NAME), "a", encoding="utf-8",
              newline="\n") as fh:
        fh.write(line + "\n")


def _pick_eps(cfg: RunConfig, eps: float | None) -> float:
    if eps is None:
        return float(cfg.schedule[0])
    if eps <= 0.0:
        raise ConfigError("--eps: must be positive")
    if 1.0 - eps**2 * cfg.spec().bound_V <= 0.0:
        raise ConfigError(f"--eps: ellipticity floor vanishes at eps={eps:g}")
    return float(eps)


def _member_summary(m) -> dict:
    f = m.full
    return {
        "eps": m.eps,
        "rho_star": m.rho_star,
        "t_value": m.t_value,
        "layer_radius": m.eps * f.peak_rho,
        "peak_rho": f.peak_rho,
        "residual_max": f.residual_max,
        "mass_weighted": f.mass_weighted,
        "pohozaev_1": f.pohozaev_1,
        "pohozaev_2": f.pohozaev_2,
        "newton_iters": f.newton_iters,
        "residual_evals": f.residual_evals,
        "roundoff_floor": f.roundoff_floor,
        "truncation_active": f.truncation_active,
        "force_cap": f.force_cap,
        "remainder_ratio": m.reduced.solution.remainder_ratio,
    }


def _run_family(cfg: RunConfig, schedule) -> object:
    res = continuation_in_eps(
        cfg.n, cfg.p, cfg.spec(), schedule, cfg.C1, cfg.C2,
        tuple(cfg.t_bracket), gamma=cfg.gamma, trunc_K=cfg.trunc_K,
        h_reduce=cfg.grid.h_reduce, h_solve=cfg.grid.h_solve,
        tail=cfg.grid.tail, tol_coeff=cfg.tolerances.solve_tol_coeff)
    if not res.members:
        raise SolverError(f"continuation produced no members: {res.failure}")
    if not res.completed:
        print(f"shellwave: continuation stopped at eps={res.failed_eps:g}: "
              f"{res.failure}", file=sys.stderr)
    return res


# ---------------------------------------------------------------- stages

def _stage_ground(cfg, outdir, eps, rho_samples):
    prof = GroundStateProfile(p=cfg.p, lam=1.0)
    c = ground_state_constants(prof, n=cfg.n)
    lam2 = prof.lam**2
    # the three half-line quantities that coincide by the 1d identities
    q1 = c.kinetic_half
    q2 = 0.5 * c.lp1_full - 0.5 * lam2 * c.mass_full
    q3 = 0.5 * lam2 * c.mass_full - c.lp1_full / (cfg.p + 1.0)
    rows = [
        ("p", c.p), ("lam", c.lam), ("n", c.n),
        ("mass_full", c.mass_full), ("kinetic_half", c.kinetic_half),
        ("lp1_full", c.lp1_full), ("energy_const", c.energy_const),
        ("mass_const", c.mass_const), ("B_const", c.B_const),
        ("poh_kinetic", q1), ("poh_force_minus_mass", q2),
        ("poh_mass_minus_force", q3),
    ]
    csv_path = os.path.join(outdir, "ground_constants.csv")
    write_csv(csv_path, ("name", "value"), rows)
    s = np.linspace(0.0, 14.0 / prof.lam, 1401)
    q = prof.value(s)
    dat = os.path.join(outdir, "ground_profile.dat")
    write_plot_data(dat, "s", "Q", s, q)
    svg = os.path.join(outdir, "ground_profile.svg")
    write_svg(svg, s, q, title="ground state profile", xlabel="s", ylabel="Q")
    spread = (max(q1, q2, q3) - min(q1, q2, q3)) / max(abs(q1), 1e-300)
    outputs = {"constants": csv_path, "profile": dat, "plot": svg}
    passes = {"pohozaev_agree": bool(spread <= 1e-8)}
    return outputs, passes


def _stage_spectrum(cfg, outdir, eps, rho_samples):
    prof = GroundStateProfile(p=cfg.p, lam=1.0)
    rep = nondegeneracy_report(prof)
    path = os.path.join(outdir, "spectrum.json")
    write_json(path, {
        "p": cfg.p,
        "lam": prof.lam,
        "eigenvalues": list(rep.eigenvalues),
        "kernel_cosine": rep.kernel_cosine,
        "complement_floor": rep.complement_floor,
        "quad_form_qq": rep.quad_form_qq,
        "quad_form_qq_ref": rep.quad_form_qq_ref,
    })
    outputs = {"spectrum": path}
    passes = {
        "lowest_negative": bool(rep.eigenvalues[0] < 0.0),
        "kernel_cosine_ok": bool(rep.kernel_cosine >= 0.9999),
        "complement_floor_positive": bool(rep.complement_floor > 0.0),
    }
    return outputs, passes


def _stage_mpot(cfg, outdir, eps, rho_samples):
    e = _pick_eps(cfg, eps)
    spec = cfg.spec()
    lo, hi = cfg.t_bracket
    crit = find_critical_radius(spec, cfg.n, cfg.p, e, (lo, hi),
                                beta_floor=cfg.beta_floor)
    r = np.linspace(0.5 * lo, 1.25 * hi, 1601)
    pts = eval_M(spec, cfg.n, cfg.p, e, r)
    csv_path = os.path.join(outdir, "mpot.csv")
    write_csv(csv_path, ("r", "M", "Mp", "Mpp"),
              zip(r, pts.M, pts.Mp, pts.Mpp))
    dat = os.path.join(outdir, "mpot.dat")
    write_plot_data(dat, "r", "M", r, pts.M)
    svg = os.path.join(outdir, "mpot.svg")
    write_svg(svg, r, pts.M, title=f"effective potential, eps={e:g}",
              xlabel="r", ylabel="M")
    jpath = os.path.join(outdir, "mpot.json")
    write_json(jpath, {
        "eps": e, "t_eps": crit.t_eps, "curvature": crit.curvature,
        "roots": list(crit.roots), "bracket": list(crit.bracket),
    })
    outputs = {"table": csv_path, "plot_data": dat, "plot": svg,
               "critical_radius": jpath}
    passes = {"nondegenerate": bool(abs(crit.curvature) > 0.0)}
    return outputs, passes


def _stage_scan(cfg, outdir, eps, rho_samples):
    e = _pick_eps(cfg, eps)
    k = cfg.rho_samples if rho_samples is None else rho_samples
    if k < 8:
        raise ConfigError("--rho-samples: need at least 8")
    spec = cfg.spec()
    eps_max = max(float(cfg.schedule[0]), e)
    w_lo, w_hi = cfg.C1 / (2.0 * e**3), 2.0 * cfg.C2 / e**3
    params = AnsatzParams.make(cfg.n, cfg.p, e, 0.5 * (w_lo + w_hi), spec,
                               cfg.C1, cfg.C2, gamma=cfg.gamma,
                               eps_max=eps_max, tail=cfg.grid.tail)
    curve = reduced_energy_scan(params, spec, k, h=cfg.grid.h_reduce)
    csv_path = os.path.join(outdir, "scan.csv")
    write_csv(csv_path, ("rho", "psi", "alpha", "discrepancy", "ok"),
              zip(curve.rho, curve.psi, curve.alpha, curve.discrepancy,
                  curve.ok))
    a_dat = os.path.join(outdir, "scan_alpha.dat")
    write_plot_data(a_dat, "rho", "alpha", curve.rho, curve.alpha)
    p_dat = os.path.join(outdir, "scan_psi.dat")
    write_plot_data(p_dat, "rho", "psi", curve.rho, curve.psi)
    svg = os.path.join(outdir, "scan_alpha.svg")
    write_svg(svg, curve.rho, curve.alpha,
              title=f"reduced multiplier, eps={e:g}", xlabel="rho",
              ylabel="alpha")
    alpha = np.asarray(curve.alpha)
    ok = np.asarray(curve.ok, dtype=bool)
    sign_change = bool(np.any(alpha[ok][:-1] * alpha[ok][1:] < 0.0)) \
        if ok.sum() >= 2 else False
    outputs = {"scan": csv_path, "alpha": a_dat, "psi": p_dat, "plot": svg}
    passes = {"all_samples_ok": bool(ok.all()),
              "alpha_sign_change": sign_change}
    return outputs, passes


def _stage_solve(cfg, outdir, eps, rho_samples):
    e = _pick_eps(cfg, eps)
    spec = cfg.spec()
    res = _run_family(cfg, [e])
    m = res.members[0]
    full = m.full
    coarse, fine, ratios = pohozaev_refinement_check(
        full, spec, trunc_K=cfg.trunc_K, tol_coeff=cfg.tolerances.solve_tol_coeff)
    slope, beta, tail_rel = tail_decay_check(full, spec)
    terms = [dataclasses.asdict(row) for row in asymptotic_terms_check(full, spec)]
    summary = _member_summary(m)
    summary.update({
        "defect_shrink": list(ratios),
        "defects_fine": [fine.defect_1, fine.defect_2],
        "tail_slope": slope, "tail_beta": beta, "tail_rel_err": tail_rel,
        "asymptotic_terms": terms,
        "grid_h": full.grid.h, "grid_size": full.grid.size,
    })
    jpath = os.path.join(outdir, "solve.json")
    write_json(jpath, summary)
    stride = max(1, full.grid.size // 4000)
    idx = np.arange(0, full.grid.size, stride)
    dat = os.path.join(outdir, "profile.dat")
    write_plot_data(dat, "s", "u", full.grid.nodes[idx], full.profile[idx])
    svg = os.path.join(outdir, "profile.svg")
    write_svg(svg, full.grid.nodes[idx], full.profile[idx],
              title=f"solution profile, eps={e:g}", xlabel="s", ylabel="u")
    outputs = {"solution": jpath, "profile": dat, "plot": svg}
    passes = {
        "pohozaev_1": bool(full.pohozaev_1 <= 1e-6),
        "pohozaev_2": bool(full.pohozaev_2 <= 1e-6),
        "defects_shrink": bool(min(ratios) >= 3.5),
        "truncation_inactive": not full.truncation_active,
    }
    return outputs, passes


def _stage_continue(cfg, outdir, eps, rho_samples):
    res = _run_family(cfg, cfg.schedule)
    rows = [_member_summary(m) for m in res.members]
    csv_path = os.path.join(outdir, "family.csv")
    cols = ("eps", "rho_star", "t_value", "layer_radius", "peak_rho",
            "residual_max", "mass_weighted", "pohozaev_1", "pohozaev_2",
            "newton_iters", "residual_evals", "roundoff_floor",
            "remainder_ratio")
    write_csv(csv_path, cols, ([r[c] for c in cols] for r in rows))
    jpath = os.path.join(outdir, "family.json")
    write_json(jpath, {
        "members": rows, "completed": res.completed,
        "failed_eps": res.failed_eps, "failure": res.failure,
    })
    e_vals = [m.eps for m in res.members]
    t_vals = [m.eps * m.full.peak_rho for m in res.members]
    dat = os.path.join(outdir, "family_radius.dat")
    write_plot_data(dat, "eps", "layer_radius", e_vals, t_vals)
    svg = os.path.join(outdir, "family_radius.svg")
    write_svg(svg, e_vals, t_vals, title="layer radius along the family",
              xlabel="eps", ylabel="eps*rho")
    outputs = {"family": csv_path, "family_json": jpath,
               "radius": dat, "plot": svg}
    passes = {
        "completed": res.completed,
        "pohozaev_all": bool(all(max(m.full.pohozaev_1, m.full.pohozaev_2)
                                 <= 1e-6 for m in res.members)),
        "remainder_in_set": bool(all(r["remainder_ratio"] <= cfg.gamma
                                     for r in rows)),
    }
    return outputs, passes


def _stage_normalize(cfg, outdir, eps, rho_samples):
    spec = cfg.spec()
    res = _run_family(cfg, cfg.schedule)
    records = [to_original(m.full, spec) for m in res.members]
    cols = ("eps", "n", "p", "a", "mu", "mass_check", "rho", "rho_orig",
            "m_prime_abs", "v_prime_abs", "eq1_residual")
    csv_path = os.path.join(outdir, "normalized.csv")
    write_csv(csv_path, cols,
              ([getattr(r, c) for c in cols] for r in records))
    jpath = os.path.join(outdir, "records.json")
    write_json(jpath, [dataclasses.asdict(r) for r in records])
    trends = necessary_conditions_report(records)
    tpath = os.path.join(outdir, "trends.json")
    write_json(tpath, dataclasses.asdict(trends))
    outputs = {"table": csv_path, "records": jpath, "trends": tpath}
    passes = {
        "unit_mass": bool(all(abs(r.mass_check - 1.0) <= 1e-8
                              for r in records)),
        "trend_rho": trends.rho_increasing,
        "trend_rho_orig": trends.rho_orig_increasing,
        "trend_a": trends.a_increasing,
        "trend_stationarity": trends.stationarity_tightening,
    }
    if len(records) >= 3:
        scaling = scaling_law_check(records)
        spath = os.path.join(outdir, "scaling.json")
        write_json(spath, dataclasses.asdict(scaling))
        outputs["scaling"] = spath
        passes["scaling_in_band"] = scaling.in_band_at_smallest
        passes["scaling_tightening"] = scaling.deviation_decreasing
    dat = os.path.join(outdir, "mass_parameter.dat")
    write_plot_data(dat, "eps", "a", [r.eps for r in records],
                    [r.a for r in records])
    outputs["mass_parameter"] = dat
    if trends.warning:
        print(f"shellwave: {trends.warning}", file=sys.stderr)
    return outputs, passes


def _stage_report(cfg, outdir, eps, rho_samples):
    ledger = os.path.join(outdir, LEDGER_NAME)
    lines = []
    if os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    out = ["shellwave run report", ""]
    if not lines:
        out.append("no runs")
    else:
        counts: dict = {}
        pass_tally: dict = {}
        for ln in lines:
            rec = json.loads(ln)
            sub = rec.get("subcommand", "?")
            counts[sub] = counts.get(sub, 0) + 1
            for name, ok in rec.get("passes", {}).items():
                good, total = pass_tally.get((sub, name), (0, 0))
                pass_tally[(sub, name)] = (good + (1 if ok else 0), total + 1)
        out.append(f"runs: {len(lines)}")
        for sub in sorted(counts):
            out.append(f"  {sub}: {counts[sub]}")
        out.append("")
        out.append("checks:")
        for (sub, name) in sorted(pass_tally):
            good, total = pass_tally[(sub, name)]
            out.append(f"  {sub}/{name}: {good}/{total} pass")
    text = "\n".join(out) + "\n"
    path = os.path.join(outdir, "report.txt")
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return {"report": path}, {}


_STAGES = {
    "ground": _stage_ground,
    "spectrum": _stage_spectrum,
    "mpot": _stage_mpot,
    "scan": _stage_scan,
    "solve": _stage_solve,
    "continue": _stage_continue,
    "normalize": _stage_normalize,
    "report": _stage_report,
}


def run(cfg: RunConfig, subcommand: str, eps: float | None = None,
        rho_samples: int | None = None) -> RunRecord:
    if subcommand not in _STAGES:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    outputs, passes = _STAGES[subcommand](cfg, outdir, eps, rho_samples)
    wall = time.perf_counter() - t0
    record = RunRecord(
        subcommand=subcommand,
        config_hash=cfg.config_hash(),
        outputs={k: os.path.relpath(v, outdir) for k, v in outputs.items()},
        wall_times={"total": wall},
        passes=passes,
    )
    if subcommand != "report":
        _append_ledger(outdir, record)
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shellwave",
        description="radial concentration experiments: ground-state audit, "
                    "reduction scan, full solves, continuation, normalization")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "ground": "1d ground-state constants and identity audit",
        "spectrum": "linearized operator spectrum and kernel check",
        "mpot": "effective potential table and critical radius",
        "scan": "reduced energy / multiplier scan over the rho window",
        "solve": "single full solve with audits at one eps",
        "continue": "track the layer family down the eps schedule",
        "normalize": "continuation plus original-variable records and trends",
        "report": "summarize the run ledger",
    }
    for name in ("ground", "spectrum", "mpot", "scan", "solve", "continue",
                 "normalize", "report"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", default=None,
                        help="path to a JSON or key=value config file")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
        sp.add_argument("--eps", type=float, default=None,
                        help="override eps for single-eps stages")
        sp.add_argument("--rho-samples", type=int, default=None,
                        dest="rho_samples", help="override scan sample count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report" and args.config is None:
            if args.out is None:
                raise ConfigError("report: need --config or --out")
            _stage_report(None, args.out, None, None)
            return 0
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, outdir=args.out)
        run(cfg, args.command, eps=args.eps, rho_samples=args.rho_samples)
    except ConfigError as exc:
        print(f"shellwave: config invalid: {exc}", file=sys.stderr)
        return 2
    except ShellwaveError as exc:
        print(f"shellwave: {args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
