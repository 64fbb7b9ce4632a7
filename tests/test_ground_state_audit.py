"""scripts/ground_state_audit.py on one (p, lam)."""

import importlib.util
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "scripts" / "ground_state_audit.py"
spec = importlib.util.spec_from_file_location("ground_state_audit", PATH)
ground_state_audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ground_state_audit)


def test_one_row_with_the_closed_form_constants(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ground_state_audit.py", "--p", "3", "--lam", "1"])
    assert ground_state_audit.main() == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["p", "lam", "mass_full", "kinetic_half", "lp1_full", "spread"]
    p, lam, mass, kinetic, lp1, spread = (float(x) for x in row.split())
    # int Q^2 = 4, int_0^inf Q'^2 = 2/3, int Q^4 = 16/3 at p = 3, lam = 1
    assert (p, lam, mass, kinetic, lp1) == (3.0, 1.0, 4.0, 0.66666667, 5.33333333)
    assert 0.0 <= spread <= 1e-8
