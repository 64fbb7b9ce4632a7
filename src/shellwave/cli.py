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
import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzParams
from .config import (RunConfig, check_eps, check_rho_samples, first_bracket, load_config,
                     omega_window)
from .exceptions import ConfigError, ShellwaveError, SolverError
from .family_store import StoreUnusable, family_key, load_family, save_family
from .full_solver import (
    SHRINK_BAND,
    asymptotic_terms_check,
    continuation_in_eps,
    pohozaev_refinement_check,
    tail_decay_check,
)
from .ground_state import (
    GroundStateProfile,
    ground_state_constants,
    identity_spread,
    nondegeneracy_report,
)
from .normalization import (
    NormalizedRecord,
    necessary_conditions_report,
    scaling_law_check,
    to_original,
)
from .potentials import eval_M, find_critical_radius
from .reduction import reduced_energy_scan
from .serialize import (to_plain, write_columns, write_csv, write_json, write_plot_data,
                        write_svg)

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


def _pick_eps(cfg: RunConfig, eps: float | None, bracket: bool = False) -> float:
    """schedule[0], or the --eps override checked as a schedule entry is:
    with bracket, also against the first member's bracket rule."""
    if eps is None:
        return float(cfg.schedule[0])
    check_eps("--eps", eps)
    try:
        cfg.spec().lambda0(eps)
        if bracket:
            first_bracket(eps, cfg.C1, cfg.C2, cfg.t_bracket)
    except ConfigError as exc:
        raise ConfigError(f"--eps: {exc}") from None
    return float(eps)


def _member_summary(m) -> dict:
    """A member's record: family.csv's columns in order, then two more."""
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
        "coarse_iters": f.coarse_iters,
        "residual_evals": f.residual_evals,
        "roundoff_floor": f.roundoff_floor,
        "newton_stop": f.newton_stop,
        "remainder_ratio": m.reduced.solution.remainder_ratio,
        "rho_evaluations": m.reduced.evaluations,
        "rho_widened": m.reduced.widened,
        "dpsi_ok": m.reduced.dpsi_ok,
        "branch_sign": m.branch_sign,
        "truncation_active": f.truncation_active,
        "force_cap": f.force_cap,
    }


def _run_family(cfg: RunConfig, schedule, known=()) -> object:
    res = continuation_in_eps(
        cfg.n, cfg.p, cfg.spec(), schedule, cfg.C1, cfg.C2,
        tuple(cfg.t_bracket), gamma=cfg.gamma, trunc_K=cfg.trunc_K,
        h_reduce=cfg.grid.h_reduce, h_solve=cfg.grid.h_solve,
        tol_coeff=cfg.tolerances.solve_tol_coeff, known=known)
    if not res.members:
        raise SolverError(f"continuation produced no members: {res.failure}")
    if not res.completed:
        print(f"shellwave: continuation stopped at eps={res.failed_eps:g}: "
              f"{res.failure}", file=sys.stderr)
    return res


# ---------------------------------------------------------------- stages

def _stage_ground(cfg, outdir):
    prof = GroundStateProfile(p=cfg.p, lam=1.0)
    c = ground_state_constants(prof, n=cfg.n)
    q1, q2, q3, spread = identity_spread(c)
    rows = {**dataclasses.asdict(c), "poh_kinetic": q1,
            "poh_force_minus_mass": q2, "poh_mass_minus_force": q3}
    csv_path = os.path.join(outdir, "ground_constants.csv")
    write_csv(csv_path, ("name", "value"), rows.items())
    s = np.linspace(0.0, 14.0 / prof.lam, 1401)
    q = prof.value(s)
    dat = os.path.join(outdir, "ground_profile.dat")
    write_plot_data(dat, "s", "Q", s, q)
    svg = os.path.join(outdir, "ground_profile.svg")
    write_svg(svg, s, q, title="ground state profile", xlabel="s", ylabel="Q")
    outputs = {"constants": csv_path, "profile": dat, "plot": svg}
    passes = {"pohozaev_agree": bool(spread <= 1e-8)}
    return outputs, passes


def _stage_spectrum(cfg, outdir):
    prof = GroundStateProfile(p=cfg.p, lam=1.0)
    rep = nondegeneracy_report(prof)
    path = os.path.join(outdir, "spectrum.json")
    write_json(path, {"p": cfg.p, "lam": prof.lam, **dataclasses.asdict(rep)})
    outputs = {"spectrum": path}
    passes = {
        "lowest_negative": bool(rep.eigenvalues[0] < 0.0),
        "kernel_cosine_ok": bool(rep.kernel_cosine >= 0.9999),
        "complement_floor_positive": bool(rep.complement_floor > 0.0),
    }
    return outputs, passes


def _stage_mpot(cfg, outdir, eps=None):
    e = _pick_eps(cfg, eps)
    spec = cfg.spec()
    lo, hi = cfg.t_bracket
    crit = find_critical_radius(spec, cfg.n, cfg.p, e, (lo, hi),
                                beta_floor=cfg.beta_floor)
    r = np.linspace(0.5 * lo, 1.25 * hi, 1601)
    pts = eval_M(spec, cfg.n, cfg.p, e, r)
    csv_path = os.path.join(outdir, "mpot.csv")
    write_columns(csv_path, pts)
    dat = os.path.join(outdir, "mpot.dat")
    write_plot_data(dat, "r", "M", r, pts.M)
    svg = os.path.join(outdir, "mpot.svg")
    write_svg(svg, r, pts.M, title=f"effective potential, eps={e:g}",
              xlabel="r", ylabel="M")
    jpath = os.path.join(outdir, "mpot.json")
    write_json(jpath, {"eps": e, **dataclasses.asdict(crit)})
    outputs = {"table": csv_path, "plot_data": dat, "plot": svg,
               "critical_radius": jpath}
    passes = {"nondegenerate": bool(abs(crit.curvature) > 0.0)}
    return outputs, passes


def _stage_scan(cfg, outdir, eps=None, rho_samples=None):
    e = _pick_eps(cfg, eps)
    k = cfg.rho_samples if rho_samples is None else check_rho_samples("--rho-samples", rho_samples)
    spec = cfg.spec()
    eps_max = max(float(cfg.schedule[0]), e)
    params = AnsatzParams.make(cfg.n, cfg.p, e, omega_window(e, cfg.C1, cfg.C2)[0], spec,
                               cfg.C1, cfg.C2, gamma=cfg.gamma, eps_max=eps_max)
    curve = reduced_energy_scan(params, spec, k, h=cfg.grid.h_reduce)
    csv_path = os.path.join(outdir, "scan.csv")
    write_columns(csv_path, curve, skip=("eps",))
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


def _stage_solve(cfg, outdir, eps=None):
    e = _pick_eps(cfg, eps, bracket=True)
    spec = cfg.spec()
    res = _run_family(cfg, [e])
    m = res.members[0]
    full = m.full
    coarse, _, ratios = pohozaev_refinement_check(
        full, spec, trunc_K=cfg.trunc_K, tol_coeff=cfg.tolerances.solve_tol_coeff)
    slope, beta, tail_rel = tail_decay_check(full, spec)
    terms = [dataclasses.asdict(row) for row in asymptotic_terms_check(full, spec)]
    summary = _member_summary(m)
    summary.update({
        "defect_shrink": list(ratios),
        "defects_coarse": [coarse.defect_1, coarse.defect_2],
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
        "defects_shrink": all(SHRINK_BAND[0] <= r <= SHRINK_BAND[1] for r in ratios),
        "truncation_inactive": not full.truncation_active,
    }
    return outputs, passes


def _stage_continue(cfg, outdir):
    res = _run_family(cfg, cfg.schedule)
    rows = [_member_summary(m) for m in res.members]
    csv_path = os.path.join(outdir, "family.csv")
    cols = list(rows[0])[:-2]  # family.json alone has truncation_active, force_cap
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
    store = save_family(outdir, family_key(cfg), res)
    outputs = {"family": csv_path, "family_json": jpath,
               "radius": dat, "plot": svg, "store": store}
    passes = {
        "completed": res.completed,
        "pohozaev_all": bool(all(max(m.full.pohozaev_1, m.full.pohozaev_2)
                                 <= 1e-6 for m in res.members)),
        "remainder_in_set": bool(all(r["remainder_ratio"] <= cfg.gamma
                                     for r in rows)),
    }
    return outputs, passes


def _stored_members(cfg, outdir) -> tuple:
    """The members continue stored in outdir for a config with cfg's family
    key, () if none; an unusable store is named on stderr and solved again."""
    try:
        res = load_family(outdir, family_key(cfg))
    except StoreUnusable as exc:
        print(f"shellwave: family store not used, solving again: {exc}",
              file=sys.stderr)
        return ()
    return res.members if res is not None else ()


def _stage_normalize(cfg, outdir):
    spec = cfg.spec()
    res = _run_family(cfg, cfg.schedule, known=_stored_members(cfg, outdir))
    records = [to_original(m.full, spec) for m in res.members]
    csv_path = os.path.join(outdir, "normalized.csv")
    write_csv(csv_path, [f.name for f in dataclasses.fields(NormalizedRecord)],
              map(dataclasses.astuple, records))
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


def _require_run_dir(outdir: str, name: str) -> None:
    # report only reads a ledger: a missing directory is a mistyped path
    if not os.path.isdir(outdir):
        raise ConfigError(f"{name}: no run directory at {outdir!r}")


def _stage_report(cfg, outdir):
    ledger = os.path.join(outdir, LEDGER_NAME)
    lines = []
    if os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as fh:
            lines = [(lineno, ln) for lineno, ln in
                     enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    out = ["shellwave run report", ""]
    if not lines:
        out.append("no runs")
    else:
        counts: dict = {}
        pass_tally: dict = {}
        for lineno, ln in lines:
            try:
                rec = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{ledger}: line {lineno}: {exc.msg}") from None
            sub = rec.get("subcommand", "?") if isinstance(rec, dict) else None
            if not (isinstance(sub, str) and isinstance(rec.get("passes", {}), dict)):
                raise ConfigError(f"{ledger}: line {lineno}: not a run record")
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return {"report": path}, {}


# in the order a full run takes them
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
# stage -> the overrides it reads, its parameters after (cfg, outdir);
# each is a flag of that stage alone
STAGE_OVERRIDES = {name: tuple(inspect.signature(fn).parameters)[2:]
                   for name, fn in _STAGES.items()}
_OVERRIDE_ARGS = {"eps": {"type": float, "help": "use this eps instead of schedule[0]"},
                  "rho_samples": {"type": int, "help": "override the scan sample count"}}


def run(cfg: RunConfig, subcommand: str, **overrides) -> RunRecord:
    if subcommand not in _STAGES:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    outdir = cfg.outdir
    if subcommand == "report":
        _require_run_dir(outdir, "outdir")
    else:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"outdir: cannot create directory {outdir!r}: "
                              f"{exc.strerror or exc}") from None
    t0 = time.perf_counter()
    try:
        outputs, passes = _STAGES[subcommand](cfg, outdir, **overrides)
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
    except OSError as exc:
        # an artifact or ledger path the stage cannot use is a bad outdir
        raise ConfigError(f"outdir: cannot use {exc.filename or outdir!r}: "
                          f"{exc.strerror or exc}") from None
    return record


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        "normalize": "unit-mass records and trends of the family; takes the "
                     "members continue stored for the same family fields "
                     "(all but rho_samples, beta_floor and outdir) and "
                     "brackets, solves the rest",
        "report": "summarize the run ledger",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", default=None,
                        help="path to a JSON config file")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
        # absent unless given, so main passes only the overrides given
        for dest in STAGE_OVERRIDES[name]:
            sp.add_argument("--" + dest.replace("_", "-"), default=argparse.SUPPRESS,
                            **_OVERRIDE_ARGS[dest])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report" and args.out is not None:
            _require_run_dir(args.out, "--out")
        if args.command == "report" and args.config is None:
            if args.out is None:
                raise ConfigError("report: need --config or --out")
            _stage_report(None, args.out)
            return 0
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, outdir=args.out)
        run(cfg, args.command, **{k: v for k, v in vars(args).items()
                                  if k in STAGE_OVERRIDES[args.command]})
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
