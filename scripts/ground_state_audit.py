"""Tabulate 1d ground-state constants and their identity spread.

Columns: the full-line mass, half-line kinetic term, L^(p+1) norm, and
the relative spread of the three quantities that coincide by the
half-line identities (zero up to quadrature error).
"""

import argparse

from shellwave.ground_state import (
    GroundStateProfile,
    ground_state_constants,
    identity_spread,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, nargs="+", default=[2.0, 3.0, 4.0, 5.0, 7.0])
    ap.add_argument("--lam", type=float, nargs="+", default=[1.0, 2.0])
    args = ap.parse_args()
    print(f"{'p':>5} {'lam':>5} {'mass_full':>14} {'kinetic_half':>14} "
          f"{'lp1_full':>14} {'spread':>10}")
    for p in args.p:
        for lam in args.lam:
            c = ground_state_constants(GroundStateProfile(p=p, lam=lam), n=2)
            spread = identity_spread(c)[3]
            print(f"{p:5.2f} {lam:5.2f} {c.mass_full:14.8f} "
                  f"{c.kinetic_half:14.8f} {c.lp1_full:14.8f} {spread:10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
