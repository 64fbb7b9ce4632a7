"""Shared fixtures: the continuation families are expensive, so they are
computed once per session and reused by the solver, normalization, and
acceptance tests."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh, null_space

from shellwave import full_solver
from shellwave.full_solver import continuation_in_eps
from shellwave.normalization import to_original
from shellwave.potentials import PotentialSpec

SINE_SCHEDULE = (0.5, 0.45, 0.4, 0.35, 0.3)
SINE_C1, SINE_C2 = 0.5, 1.5
SINE_T_BRACKET = (7.5, 9.5)


def banded_jacobian(colloc, u):
    """The collocation Jacobian in solve_banded's (1, 1) layout, written
    through three views of one (3, m) array whose unused corners stay
    zero."""
    J = np.zeros((3, len(u)))
    colloc.jacobian(u, J[2, :-1], J[1], J[0, 1:])
    return J


def edit_store_index(outdir, edit):
    """Apply edit to the parsed index of outdir's family store and write it
    back."""
    path = Path(outdir) / "family_store" / "members.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture
def member_solves(monkeypatch):
    """The eps of every full_solver.solve_member call the test makes."""
    calls = []
    solve = full_solver.solve_member

    def counted(params, *args, **kwargs):
        calls.append(params.eps)
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(full_solver, "solve_member", counted)
    return calls


@pytest.fixture(scope="session")
def sine_spec():
    return PotentialSpec.sine()


@pytest.fixture(scope="session")
def sine_family(sine_spec):
    res = continuation_in_eps(
        2, 3.0, sine_spec, SINE_SCHEDULE, SINE_C1, SINE_C2, SINE_T_BRACKET,
        gamma=0.6)
    assert res.completed, res.failure
    return res


@pytest.fixture(scope="session")
def sine_records(sine_family, sine_spec):
    return [to_original(m.full, sine_spec) for m in sine_family.members]


@pytest.fixture(scope="session")
def supercritical_family(sine_spec):
    res = continuation_in_eps(
        3, 6.0, sine_spec, (0.5,), 0.5, 3.0, (2.0, 12.0), trunc_K=3.0)
    assert res.completed, res.failure
    return res


@pytest.fixture(scope="session")
def complement_min_dense():
    """Dense reference for grids.constrained_min_eig: the smallest
    eigenvalue of the banded pencil (H, G) on the null space of border^T."""

    def dense(H, G, border) -> float:
        H, G = (np.diag(a[1]) + np.diag(a[0, 1:], 1) + np.diag(a[0, 1:], -1) for a in (H, G))
        Z = null_space(border.T)
        vals = eigh(Z.T @ (H @ Z), Z.T @ (G @ Z), subset_by_index=[0, 0], eigvals_only=True)
        return float(vals[0])

    return dense
