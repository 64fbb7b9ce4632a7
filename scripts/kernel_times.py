"""Time shellwave's kernels one by one on the shipped eps = 0.3 member.

    python3 scripts/kernel_times.py --repeat 20
    python3 scripts/kernel_times.py --repeat 20 --root ../parent

The package is imported from ``<root>/src`` (this checkout by default), so
one copy of this script times any checkout that has the same public
names: ``ansatz.build_z_and_zdot``, ``grids.bordered_solve``,
``full_solver.member_seed``, the ``params`` and ``bracket`` fields of
``full_solver.FamilyMember`` and the ``measure`` option of
``reduction.solve_projected``.  Checkouts without them are not timed.
Set-up runs the config's continuation once, untimed, to find the
eps = 0.3 member, its ansatz at rho* and the rho* bracket the
continuation gave it.  The kernels then run in turn, --repeat rounds of
one call each, and each kernel's minimum is kept: spreading every
kernel's calls over the whole run and keeping the fastest is what least
reflects other load on a shared machine.

* ``solve_projected_cold`` and ``solve_projected_warm``: one projected solve
  at rho* on the rho* search's grid, with its operators built beforehand,
  from omega = 0 or warm-started from the solve 3e-4 rho* below, made as
  the rho* search makes them (without Psi and the remainder ratio);
* ``bordered_factor_solve``: one factorization and solve of the Newton
  system at that solution, as the projected Newton iteration makes it
  (``grids.bordered_solve``);
* ``z_and_zdot``: the manifold element and its rho-derivative at rho*;
* ``find_rho_star``, ``solve_full``, ``pohozaev_refinement_check`` and
  ``find_critical_radius``: one call each, as the continuation and the
  ``solve`` and ``mpot`` stages make them;
* ``solve_full_cold``: one full solve from z at t_eps/eps, the critical
  radius, on that ansatz's grid, as the audit-sine-n2 benchmark workload
  seeds its eps = 0.3 solve;
* ``solve_member``: the whole member, its rho* search, branch tag, seed
  and full solve, as the continuation makes it.

The result is one JSON line: the minima in milliseconds, the node counts
(``audit_nodes`` is the grid the refinement audit re-solves on), and the
repeat count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EPS = 0.3


def best_ms(kernels: dict, repeat: int) -> dict:
    """Each kernel's minimum wall time over repeat rounds that call every
    kernel once, in milliseconds."""
    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(repeat):
        for name, fn in kernels.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {f"{name}_ms": round(1e3 * t, 4) for name, t in best.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=20, help="runs per kernel (minimum kept)")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/ and configs/ are used")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy as np

    from shellwave import ansatz, full_solver, grids, potentials, reduction
    from shellwave.config import load_config

    cfg = load_config(os.path.join(args.root, "configs", "sine_n2.json"))
    spec = cfg.spec()
    sched = [e for e in cfg.schedule if e >= EPS]
    if sched[-1] != EPS:
        raise SystemExit(f"the config's schedule has no eps = {EPS} member")
    family = full_solver.continuation_in_eps(
        cfg.n, cfg.p, spec, sched, cfg.C1, cfg.C2, tuple(cfg.t_bracket),
        gamma=cfg.gamma, trunc_K=cfg.trunc_K, h_reduce=cfg.grid.h_reduce,
        h_solve=cfg.grid.h_solve, tol_coeff=cfg.tolerances.solve_tol_coeff)
    member = family.members[-1]
    params, bracket = member.params, member.bracket
    grid = ansatz.grid_for(params, cfg.grid.h_reduce, rho_max=bracket[1])
    ops = grids.DiscreteOperators(grid, EPS, spec, cfg.p)
    below = params.with_rho(member.rho_star * (1.0 - 3e-4))
    near = reduction.solve_projected(below, spec, grid, ops=ops)
    sol = reduction.solve_projected(params, spec, grid, ops=ops)

    z, zdot = ansatz.build_z_and_zdot(params, spec, grid)
    gzd = ops.gram_mul(zdot)
    hess = ops.hess_banded(z + sol.omega)
    rhs = np.concatenate([ops.grad(z + sol.omega) - sol.alpha * gzd, [0.0]])
    full = member.full
    seed = full_solver.member_seed(params, spec, member.reduced, full.grid)
    # the refinement audit's re-solve grid: of the two audits it returns,
    # the one that is not the member's own
    audits = full_solver.pohozaev_refinement_check(
        full, spec, trunc_K=cfg.trunc_K, tol_coeff=cfg.tolerances.solve_tol_coeff)[:2]
    audit_h = next(a.h for a in audits if a is not full.audit)
    audit_nodes = grids.RadialGrid.make(cfg.n, full.grid.s_max, audit_h).size
    crit = potentials.find_critical_radius(spec, cfg.n, cfg.p, EPS, tuple(cfg.t_bracket),
                                           beta_floor=cfg.beta_floor)
    cold_params = ansatz.AnsatzParams.make(cfg.n, cfg.p, EPS, crit.t_eps / EPS, spec,
                                           cfg.C1, cfg.C2, gamma=cfg.gamma,
                                           eps_max=float(cfg.schedule[0]))
    cold_grid = ansatz.grid_for(cold_params, cfg.grid.h_solve)
    cold_seed = ansatz.build_z(cold_params, spec, cold_grid)

    kernels = {
        "solve_projected_cold": lambda: reduction.solve_projected(
            params, spec, grid, ops=ops, measure=False),
        "solve_projected_warm": lambda: reduction.solve_projected(
            params, spec, grid, ops=ops, warm=near, measure=False),
        "bordered_factor_solve": lambda: grids.bordered_solve(hess, -gzd, gzd, rhs),
        "z_and_zdot": lambda: ansatz.build_z_and_zdot(params, spec, grid),
        "find_rho_star": lambda: reduction.find_rho_star(
            params, spec, bracket, h=cfg.grid.h_reduce),
        "solve_full": lambda: full_solver.solve_full(
            cfg.n, cfg.p, EPS, spec, seed, full.grid, trunc_K=cfg.trunc_K,
            tol_coeff=cfg.tolerances.solve_tol_coeff),
        "solve_full_cold": lambda: full_solver.solve_full(
            cfg.n, cfg.p, EPS, spec, cold_seed, cold_grid, trunc_K=cfg.trunc_K,
            tol_coeff=cfg.tolerances.solve_tol_coeff),
        "solve_member": lambda: full_solver.solve_member(
            params.with_rho(bracket[0]), spec, bracket, trunc_K=cfg.trunc_K,
            h_reduce=cfg.grid.h_reduce, h_solve=cfg.grid.h_solve,
            tol_coeff=cfg.tolerances.solve_tol_coeff),
        "pohozaev_refinement_check": lambda: full_solver.pohozaev_refinement_check(
            full, spec, trunc_K=cfg.trunc_K, tol_coeff=cfg.tolerances.solve_tol_coeff),
        "find_critical_radius": lambda: potentials.find_critical_radius(
            spec, cfg.n, cfg.p, EPS, tuple(cfg.t_bracket), beta_floor=cfg.beta_floor),
    }
    out = best_ms(kernels, args.repeat)
    out.update({"eps": EPS, "reduction_nodes": grid.size,
                "collocation_nodes": full.grid.size, "audit_nodes": audit_nodes,
                "repeat": args.repeat})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
