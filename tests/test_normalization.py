"""Original-variable dictionary, scaling law, trends, and the eps inverse solve."""

import dataclasses

import numpy as np
import pytest

from shellwave.exceptions import BracketFailure, InsufficientFamily
from shellwave.full_solver import continuation_in_eps
from shellwave.ground_state import sphere_area
from shellwave.normalization import (
    mass_to_a,
    necessary_conditions_report,
    scaling_law_check,
    solve_F_for_eps,
    to_original,
)


def test_mass_to_a_formula():
    # a = (m_tilde eps^(n - 4/(p-1)))^((p-1)/2), frozen against the dictionary
    for n, p, eps, m in ((2, 3.0, 0.4, 25.0), (3, 6.0, 0.5, 870.0)):
        want = (m * eps ** (n - 4.0 / (p - 1.0))) ** ((p - 1.0) / 2.0)
        assert mass_to_a(m, eps, n, p) == pytest.approx(want, rel=1e-14)


def test_records_dictionary(sine_records):
    for r in sine_records:
        assert r.mu == pytest.approx(-1.0 / r.eps**2, rel=1e-14)
        assert abs(r.mass_check - 1.0) <= 1e-8
        assert r.rho_orig == pytest.approx(r.eps * r.rho, rel=1e-14)
        assert r.eq1_residual <= 1e-8
        assert r.a > 0


def test_record_a_matches_weighted_mass(sine_family, sine_records):
    # a recomputed straight from the member's weighted mass integral
    for m, r in zip(sine_family.members, sine_records):
        m_tilde = sphere_area(2) * m.full.mass_weighted
        assert r.a == pytest.approx(mass_to_a(m_tilde, m.eps, 2, 3.0), rel=1e-12)


def test_scaling_law_report(sine_records):
    rep = scaling_law_check(sine_records)
    assert rep.in_band_at_smallest
    assert rep.deviation_decreasing
    devs = [abs(x - 1.0) for x in rep.ratios]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert 0.85 <= rep.ratios[-1] <= 1.15


def test_scaling_law_needs_three(sine_records):
    with pytest.raises(InsufficientFamily):
        scaling_law_check(sine_records[:2])


def test_trend_report_matches_data(sine_records):
    rep = necessary_conditions_report(sine_records)
    assert not rep.vacuous and rep.warning is None
    # reporter flags must equal the predicates computed from its own rows
    assert rep.rho_increasing == all(np.diff(rep.rho) > 0)
    assert rep.rho_orig_increasing == all(np.diff(rep.rho_orig) > 0)
    assert rep.a_increasing == all(np.diff(rep.a) > 0)
    gaps = rep.stationarity_gap
    assert rep.stationarity_tightening == all(
        b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps == tuple(min(r.m_prime_abs, r.v_prime_abs)
                         for r in sine_records)
    # the genuine family satisfies the three strict growth trends
    assert rep.rho_increasing and rep.rho_orig_increasing and rep.a_increasing


def test_trend_report_vacuous_single(sine_records):
    rep = necessary_conditions_report(sine_records[:1])
    assert rep.vacuous
    assert rep.warning


def test_trend_report_flags_injected_fault(sine_records):
    # corrupt one member's mass parameter: the growth trend must be flagged
    bad = list(sine_records)
    bad[2] = dataclasses.replace(bad[2], a=bad[1].a * 0.5)
    rep = necessary_conditions_report(bad)
    assert not rep.a_increasing
    assert rep.rho_increasing  # untouched trends stay intact


def test_solve_F_member_short_circuit(sine_family, sine_records, sine_spec):
    target = sine_records[2].a  # eps = 0.4 member
    res = solve_F_for_eps(sine_family, sine_spec, target, rel_tol=1e-8)
    assert res.eps == pytest.approx(0.4, abs=1e-8)
    assert res.iterations == 0


def test_solve_F_outside_range(sine_family, sine_spec, sine_records):
    a_vals = [r.a for r in sine_records]
    with pytest.raises(BracketFailure):
        solve_F_for_eps(sine_family, sine_spec, 0.5 * min(a_vals))
    with pytest.raises(BracketFailure):
        solve_F_for_eps(sine_family, sine_spec, 2.0 * max(a_vals))


def test_solve_F_between_samples(sine_family, sine_spec, sine_records):
    # target strictly between the 0.45 and 0.4 members
    target = np.sqrt(sine_records[1].a * sine_records[2].a)
    res = solve_F_for_eps(sine_family, sine_spec, float(target),
                          rel_tol=1e-6, h_solve=4e-3)
    assert 0.4 < res.eps < 0.45
    assert abs(res.record.a - target) <= 1e-6 * target
    assert res.iterations >= 1


def test_solve_F_probe_keeps_the_family_padding(sine_spec):
    # a family continued with tail = 30 pads its grids by 30/lambda0; a
    # probe seeded from one of its members pads the same, not by 40/lambda0
    fam = continuation_in_eps(2, 3.0, sine_spec, (0.5, 0.45), 0.5, 1.5,
                              (7.5, 9.5), gamma=0.6, h_solve=4e-3, tail=30.0)
    assert fam.completed, fam.failure
    a0, a1 = (to_original(m.full, sine_spec).a for m in fam.members)
    res = solve_F_for_eps(fam, sine_spec, float(np.sqrt(a0 * a1)),
                          rel_tol=1e-6, h_solve=4e-3)
    assert res.iterations >= 1
    near = min(fam.members, key=lambda m: abs(m.eps - res.eps))
    pad = near.full.grid.s_max - near.rho_star
    assert pad == pytest.approx(30.0 / sine_spec.lambda0(0.5), abs=0.01)
    # the probe's layer sits within 0.5 of its predicted radius
    assert abs(res.full.grid.s_max - res.full.peak_rho - pad) <= 0.5
