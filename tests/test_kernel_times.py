"""scripts/kernel_times.py: one JSON line with every kernel's time."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_times.py"
KERNELS = ("solve_projected_cold", "solve_projected_warm", "bordered_factor_solve",
           "z_and_zdot", "find_rho_star", "solve_full", "solve_full_cold", "solve_member",
           "pohozaev_refinement_check", "find_critical_radius")


def test_one_repeat_prints_every_kernel():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "1"],
                          capture_output=True, text=True, check=True)
    [line] = proc.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {f"{k}_ms" for k in KERNELS} | {
        "eps", "reduction_nodes", "collocation_nodes", "audit_nodes", "repeat"}
    assert all(out[f"{k}_ms"] > 0.0 for k in KERNELS)
    assert (out["eps"], out["repeat"]) == (0.3, 1)
    # the eps = 0.3 member's rho* search grid and full-solve grid, and the
    # audit's 2h grid: the member's even-indexed nodes plus the one node
    # that makes its interval count even
    assert (out["reduction_nodes"], out["collocation_nodes"]) == (4001, 38003)
    assert out["audit_nodes"] == 19003
