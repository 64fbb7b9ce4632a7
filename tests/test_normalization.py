"""Original-variable dictionary, scaling law, and trends."""

import dataclasses

import numpy as np
import pytest

from shellwave.exceptions import InsufficientFamily
from shellwave.ground_state import sphere_area
from shellwave.normalization import (
    mass_to_a,
    necessary_conditions_report,
    scaling_law_check,
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
