"""Nonlinear force terms: the sign-preserving power and its capped variant.

The capped force equals u^p up to level K, then blends with a cubic whose
slope is p K^(p-1) (1 - tau)^2 on [K, K+1] (monotone, C^1 at K, C^2 where it
meets the constant), and is constant above K+1.  Solutions are only accepted
when their sup stays strictly below K, in which case the cap is inactive and
both forces agree along the whole profile.

f and fp take an optional ``out`` array for the result, so the collocation
kernels can pass their workspace to either force.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PowerForce", "TruncatedForce"]


class PowerForce:
    """f(u) = |u|^(p-1) u, the sign-preserving power."""

    def __init__(self, p: float):
        self.p = float(p)

    def f(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # in-place ** takes the same fast paths (square for p = 3) as a ** e
        a = np.abs(u, out=out)
        a **= self.p - 1.0
        a *= u
        return a

    def fp(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        a = np.abs(u, out=out)
        a **= self.p - 1.0
        a *= self.p
        return a

    def energy_density(self, u: np.ndarray) -> np.ndarray:
        return np.abs(u) ** (self.p + 1.0) / (self.p + 1.0)


class TruncatedForce:
    """Odd monotone cap of |u|^(p-1) u at level K (constant above K+1)."""

    def __init__(self, p: float, K: float):
        if K <= 0:
            raise ValueError(f"truncation level must be positive, got {K}")
        self.p = float(p)
        self.K = float(K)
        self._slope = self.p * self.K ** (self.p - 1.0)
        self._cap = self.K**self.p + self._slope / 3.0

    def f(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        mag = a ** (self.p - 1.0)
        mag *= a
        mag = self._above_cap(
            a, mag, lambda tau: self.K**self.p + self._slope * (tau - tau**2 + tau**3 / 3.0),
            self._cap)
        return np.multiply(np.sign(u), mag, out=out)

    def fp(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        res = a ** (self.p - 1.0)
        res *= self.p
        res = self._above_cap(a, res, lambda tau: self._slope * (1.0 - tau) ** 2, 0.0)
        if out is None:
            return res
        out[...] = res
        return out

    def _above_cap(self, a, below, blend, cap):
        """below, the power branch on every node, with the nodes where
        a > K replaced by blend(tau) up to K+1 and by cap above it.

        Only those nodes evaluate the blend, so on a profile below the cap
        a call costs about what PowerForce's does.  a and below are numpy
        scalars on a 0-d call (the collocation origin row): its power
        branch stays numpy's scalar power, whose last bit can differ from
        the array loop's.
        """
        over = a > self.K
        if not over.any():
            return below
        below, a = np.asarray(below), np.asarray(a)[over]
        tau = np.clip(a - self.K, 0.0, 1.0)
        below[over] = np.where(a <= self.K + 1.0, blend(tau), cap)
        return below

    def active_on(self, u: np.ndarray) -> bool:
        """True when the cap actually modified the force along u."""
        return bool(np.max(np.abs(u)) >= self.K)
