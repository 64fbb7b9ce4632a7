"""Acceptance battery: one test per shipped claim, one printed line each.

Run with -s to see every line; each test also carries its line in the
assert message, so failures stay self-describing under capture.
"""

import json
import os
import time

import numpy as np
import pytest

from shellwave.ansatz import AnsatzParams, build_z, build_zdot, grid_for
from shellwave.cli import main
from shellwave.full_solver import pohozaev_refinement_check, solve_full
from shellwave.grids import DiscreteOperators, RadialGrid
from shellwave.ground_state import (
    GroundStateProfile,
    ground_state_constants,
    nondegeneracy_report,
)
from shellwave.normalization import necessary_conditions_report, scaling_law_check
from shellwave.potentials import PotentialSpec, eval_M, find_critical_radius
from shellwave.reduction import calibrate_gamma, reduced_energy_scan, solve_projected

N, P = 2, 3.0
C1, C2 = 0.5, 1.5
T_BRACKET = (7.5, 9.5)
SCHEDULE = (0.5, 0.45, 0.4, 0.35, 0.3)


def _criterion(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _member(family, eps):
    for m in family.members:
        if m.eps == pytest.approx(eps):
            return m
    raise AssertionError(f"eps={eps} not in family")


def test_criterion_01_half_line_identities():
    t0 = time.perf_counter()
    worst = 0.0
    at_p3 = None
    for p in (2.0, 3.0, 4.0, 5.0, 7.0):
        for lam in (1.0, 2.0):
            c = ground_state_constants(GroundStateProfile(p=p, lam=lam), n=N)
            q1 = c.kinetic_half
            q2 = 0.5 * c.lp1_full - 0.5 * lam**2 * c.mass_full
            q3 = 0.5 * lam**2 * c.mass_full - c.lp1_full / (p + 1.0)
            spread = (max(q1, q2, q3) - min(q1, q2, q3)) / abs(q1)
            worst = max(worst, spread)
            if p == 3.0 and lam == 1.0:
                at_p3 = (q1, q2, q3)
    dt = time.perf_counter() - t0
    ok = (worst <= 1e-8
          and all(abs(v - 2.0 / 3.0) <= 1e-8 for v in at_p3)
          and dt < 1.0)
    _criterion(1, ok, f"max rel spread {worst:.2e}, "
                      f"p=3 lam=1 value {at_p3[0]:.12f}, {dt * 1e3:.0f} ms")


def test_criterion_02_linearized_operator():
    t0 = time.perf_counter()
    rep = nondegeneracy_report(GroundStateProfile(p=3.0, lam=1.0))
    dt = time.perf_counter() - t0
    e0, e1 = float(rep.eigenvalues[0]), float(rep.eigenvalues[1])
    ok = (abs(e0 + 3.0) <= 1e-3 and abs(e1) <= 1e-3
          and rep.kernel_cosine >= 0.9999
          and rep.complement_floor > 0.0
          and dt < 5.0)
    _criterion(2, ok, f"eigs ({e0:.6f}, {e1:.6f}), "
                      f"kernel cosine {rep.kernel_cosine:.6f}, "
                      f"floor {rep.complement_floor:.4f}, {dt:.2f} s")


def test_criterion_03_identity_defects(sine_family, sine_spec):
    worst = max(max(m.full.pohozaev_1, m.full.pohozaev_2)
                for m in sine_family.members)
    t0 = time.perf_counter()
    coarse, fine, ratios = pohozaev_refinement_check(
        _member(sine_family, 0.4).full, sine_spec)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and min(ratios) >= 3.5 and dt < 30.0
    _criterion(3, ok, f"worst defect {worst:.2e}, "
                      f"shrink x{min(ratios):.2f} from 2h to h, {dt:.1f} s")


def test_criterion_04_reduction_at_layer(sine_family, sine_spec):
    eps = 0.4
    rho_star = _member(sine_family, eps).rho_star
    params = AnsatzParams.make(N, P, eps, rho_star, sine_spec, C1, C2,
                               gamma=0.6, eps_max=SCHEDULE[0])
    grid = grid_for(params, 0.02, rho_max=params.omega_window[1])
    ops = DiscreteOperators(grid, eps, sine_spec, P)
    a = solve_projected(params, sine_spec, grid, mode="newton")
    b = solve_projected(params, sine_spec, grid, mode="fixed-point")
    mode_gap = max(ops.norm(a.omega - b.omega), abs(a.alpha - b.alpha))
    zdot = build_zdot(params, sine_spec, grid)
    orth = abs(ops.inner(a.omega, zdot)) / (ops.norm(zdot) * ops.norm(a.omega))
    # gamma calibrated once at the largest eps of the sweep, then reused
    cal = AnsatzParams.make(N, P, 0.5, _member(sine_family, 0.5).rho_star,
                            sine_spec, C1, C2, gamma=0.6, eps_max=SCHEDULE[0])
    gamma = calibrate_gamma(cal, sine_spec)
    z = build_z(params, sine_spec, grid)
    envelope = ops.norm(a.omega) <= gamma * eps**3 * ops.norm(z)
    curve = reduced_energy_scan(params, sine_spec, 17)
    alpha, okmask = np.asarray(curve.alpha), np.asarray(curve.ok, dtype=bool)
    sign_change = any(alpha[i] * alpha[i + 1] < 0
                      for i in range(len(alpha) - 1)
                      if okmask[i] and okmask[i + 1])
    crit = find_critical_radius(sine_spec, N, P, eps, T_BRACKET)
    radius_gap = abs(eps * rho_star - crit.t_eps)
    ok = (mode_gap <= 1e-8 and orth <= 1e-12 and envelope
          and sign_change and radius_gap <= 0.1 * crit.t_eps)
    _criterion(4, ok, f"mode gap {mode_gap:.2e}, orthogonality {orth:.2e}, "
                      f"envelope gamma {gamma:.3f}, sign change {sign_change}, "
                      f"|eps rho* - t_eps| {radius_gap:.3f}")


def test_criterion_05_leading_order_energy(sine_spec):
    t_match = 8.0
    consts = ground_state_constants(GroundStateProfile(p=P, lam=1.0), n=N)
    disc = []
    for eps in SCHEDULE:
        params = AnsatzParams.make(N, P, eps, t_match / eps, sine_spec, C1, C2,
                                   gamma=0.6, eps_max=SCHEDULE[0])
        grid = grid_for(params, 0.02)
        sol = solve_projected(params, sine_spec, grid)
        assert sol.converged
        M = eval_M(sine_spec, N, P, eps, t_match).M
        disc.append(abs(eps ** (3 * N - 3) * sol.psi
                        - consts.energy_const * eps**2 * M))
    ok = all(b < a for a, b in zip(disc, disc[1:]))
    _criterion(5, ok, "discrepancy at eps rho = 8: "
                      + ", ".join(f"{d:.3e}" for d in disc))


def test_criterion_06_mass_dictionary(sine_records):
    mass_worst = max(abs(r.mass_check - 1.0) for r in sine_records)
    rep = scaling_law_check(sine_records)
    devs = [abs(x - 1.0) for x in rep.ratios]
    ok = (mass_worst <= 1e-8
          and 0.85 <= rep.ratios[-1] <= 1.15
          and all(b < a for a, b in zip(devs, devs[1:])))
    _criterion(6, ok, f"max |mass - 1| {mass_worst:.2e}, "
                      f"R at eps={rep.eps[-1]:g} is {rep.ratios[-1]:.4f}, "
                      "|R - 1| " + ", ".join(f"{d:.4f}" for d in devs))


def test_criterion_07_family_trends(sine_records):
    rep = necessary_conditions_report(sine_records)
    ok = (rep.rho_increasing and rep.rho_orig_increasing
          and rep.a_increasing and rep.stationarity_tightening)
    gaps = ", ".join(f"{g:.3e}" for g in rep.stationarity_gap)
    _criterion(7, ok, f"rho up {rep.rho_increasing}, "
                      f"eps rho up {rep.rho_orig_increasing}, "
                      f"a up {rep.a_increasing}, "
                      f"stationarity gaps [{gaps}] "
                      f"tightening {rep.stationarity_tightening}")


def test_criterion_08_supercritical_truncation(supercritical_family, sine_spec):
    m = supercritical_family.members[0]
    f = m.full
    sup = float(f.profile.max())
    params = AnsatzParams.make(3, 6.0, 0.5, m.rho_star, sine_spec, 0.5, 3.0)
    seed = build_z(params, sine_spec, f.grid)
    a = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=3.0)
    b = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=6.0)
    rep = float(np.max(np.abs(a.profile - b.profile)))
    ok = sup < 3.0 and not f.truncation_active and rep <= 1e-12
    _criterion(8, ok, f"sup {sup:.4f} < K=3, truncation active "
                      f"{f.truncation_active}, K-doubling gap {rep:.2e}")


def test_criterion_09_byte_identical_replay(tmp_path):
    cfg = {
        "n": N, "p": P, "potential": {"family": "sine"},
        "schedule": list(SCHEDULE), "C1": C1, "C2": C2,
        "t_bracket": list(T_BRACKET),
    }
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    payloads = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        for sub in ("ground", "spectrum", "mpot"):
            eps = ["--eps", "0.4"] if sub == "mpot" else []
            assert main([sub, "--config", str(cpath), "--out", str(out), *eps]) == 0
        blobs = {}
        for name in sorted(os.listdir(out)):
            if name == "runs.jsonl":  # ledger logs wall time
                continue
            with open(out / name, "rb") as fh:
                blobs[name] = fh.read()
        payloads.append(blobs)
    same = (payloads[0].keys() == payloads[1].keys()
            and all(payloads[0][k] == payloads[1][k] for k in payloads[0]))
    _criterion(9, same, f"{len(payloads[0])} artifacts from 3 stages compared")


def test_criterion_10_gradient_consistency():
    grid = RadialGrid.make(N, 65.0, 0.05)
    ops = DiscreteOperators(grid, 0.4, PotentialSpec.sine(), P)
    u = 1.1 * np.exp(-((grid.nodes - 21.0) / 1.2) ** 2)
    g = ops.grad(u)
    scale = max(abs(ops.energy(u)), 1.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    ok = True
    for _ in range(20):
        k = rng.uniform(0.2, 2.0)
        c = rng.uniform(8.0, 40.0)
        amp = rng.uniform(-1.0, 1.0)
        v = amp * np.sin(k * grid.nodes) * np.exp(-((grid.nodes - c) / 3.0) ** 2)
        dirderiv = float(g @ v)
        errs = []
        for t in (1e-3, 5e-4):
            fd = (ops.energy(u + t * v) - ops.energy(u - t * v)) / (2 * t)
            errs.append(abs(fd - dirderiv))
        worst = max(worst, errs[0] / scale)
        ok = ok and errs[0] <= 10.0 * scale * 1e-6 + 1e-10
        ok = ok and errs[1] <= 0.3 * errs[0] + 1e-10 * scale
    _criterion(10, ok, f"20 directions, worst rel err {worst:.2e} at t=1e-3, "
                       "quadratic shrink at t/2 on all")
