"""Run configuration: loading, validation, canonical hashing.

A config file is one JSON object describing one experiment: dimension,
exponent, potential, the eps schedule, the window constants, grid policy
and tolerances.  The potential, grid and tolerances fields are nested
objects.  config_from_dict reads every field through its annotation in
RunConfig (or GridPolicy, Tolerances), so each field is declared once.

Every numeric knob of the pipeline lives here; there is no hidden state
and no randomness anywhere, which is what makes byte-identical replay a
meaningful contract.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .exceptions import ConfigError, OutOfConfigurationSet
from .grids import MAX_NODES
from .potentials import PotentialSpec


def _number(name: str, value, rule: str = "finite") -> float:
    """value as a float, or ConfigError naming the field: "must be a number"
    (bools included), or "must be <rule>" for JSON's Infinity, NaN or 1e999."""
    try:
        x = float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: must be a number") from None
    if not np.isfinite(x):
        raise ConfigError(f"{name}: must be {rule}")
    return x


def _numbers(name: str, seq) -> tuple[float, ...]:
    if not isinstance(seq, (list, tuple)):
        raise ConfigError(f"{name}: need a list")
    return tuple(_number(name, v) for v in seq)


def check_eps(name: str, eps) -> float:
    """eps as a float, or ConfigError naming the field.

    The one rule for every eps, a schedule entry or an --eps override:
    positive, with eps^3 a finite normal float, since the configuration
    window [C1/(2 eps^3), 2 C2/eps^3] divides by it.  NaN fails it.
    """
    e = float(eps)
    with np.errstate(over="ignore", under="ignore"):
        cube = np.float64(e) ** 3
    if not (e > 0.0 and np.finfo(float).tiny <= cube < np.inf):
        raise ConfigError(
            f"{name}: eps must be positive with eps^3 a finite normal float, got {e!r}")
    return e


def check_rho_samples(name: str, k: int) -> int:
    """k, or ConfigError naming the field: the one rule for the scan's
    sample count, a config's rho_samples or a --rho-samples override, is
    8 <= k <= grids.MAX_NODES, so the sample arrays stay in the grid budget."""
    if not 8 <= k <= MAX_NODES:
        raise ConfigError(f"{name}: need between 8 and {MAX_NODES:,} rho samples, got {k:,}")
    return k


def is_supercritical(n: int, p: float) -> bool:
    """Whether a full solve truncates the force at trunc_K."""
    return n > 2 and p > (n + 2) / (n - 2)


# p <= ~1 makes the remainder decay-rate window (lambda0/min{p,2}, lambda0)
# collapse; reject early rather than emit garbage profiles
P_FLOOR = 1.05


def omega_window(eps: float, C1: float, C2: float) -> tuple[float, float]:
    """The configuration window [C1/(2 eps^3), 2 C2/eps^3] of rho at eps."""
    e3 = eps**3
    return C1 / (2.0 * e3), 2.0 * C2 / e3


def rho_bracket(eps: float, C1: float, C2: float, t_interval) -> tuple[float, float]:
    """The rho* bracket of a family member at eps whose t lies in t_interval:
    t_interval/eps clipped to the configuration window, or
    OutOfConfigurationSet naming eps when nothing is left.

    The one rule for every member: the first takes t_bracket
    (first_bracket), a later one the previous t +- full_solver.RECENTRE.
    """
    w_lo, w_hi = omega_window(eps, C1, C2)
    lo = max(t_interval[0] / eps, w_lo)
    hi = min(t_interval[1] / eps, w_hi)
    if not lo < hi:
        raise OutOfConfigurationSet(
            f"t in [{t_interval[0]:.6g}, {t_interval[1]:.6g}] leaves no rho in the "
            f"configuration window [{w_lo:.6g}, {w_hi:.6g}] at eps={eps:g}")
    return lo, hi


def first_bracket(eps: float, C1: float, C2: float, t_bracket) -> tuple[float, float]:
    """The rho* bracket of a family's first member at eps (rho_bracket on
    t_bracket), or ConfigError naming eps.

    The one check for every eps a first member can take, a schedule entry
    or solve's --eps.
    """
    try:
        return rho_bracket(eps, C1, C2, t_bracket)
    except OutOfConfigurationSet:
        raise ConfigError(
            f"t_bracket: window empty at eps={eps:g}; widen C1/C2 or move the bracket"
        ) from None


def check_schedule(schedule) -> np.ndarray:
    """The eps schedule as a float array, or ConfigError naming the field.

    The one rule for every schedule, a config's or a caller's: nonempty,
    each entry passing check_eps, and strictly decreasing, with each step
    keeping at least 70% of eps.
    """
    sched = np.asarray(schedule, dtype=float)
    if sched.size == 0:
        raise ConfigError("schedule: empty")
    for e in sched:
        check_eps("schedule", e)
    for a, b in zip(sched, sched[1:]):
        if b >= a:
            raise ConfigError("schedule: must decrease strictly")
        if b / a < 0.7:
            raise ConfigError(f"schedule: step {a:g} -> {b:g} shrinks by more than 30%")
    return sched


@dataclass(frozen=True)
class GridPolicy:
    """Step sizes shared by all stages: h_reduce is the reduction/scan
    step, h_solve the full-solve step (the decay room past the layer is
    ansatz.TAIL)."""

    h_reduce: float = 0.02
    h_solve: float = 2e-3


@dataclass(frozen=True)
class Tolerances:
    solve_tol_coeff: float = 1e-10  # full Newton: tol = coeff * (1 + max|u|^p)


@dataclass(frozen=True)
class RunConfig:
    n: int
    p: float
    potential: dict
    schedule: tuple
    C1: float = field(metadata={"rule": "positive and finite"})
    C2: float = field(metadata={"rule": "positive and finite"})
    t_bracket: tuple
    beta_floor: float = 0.05
    gamma: float = 2.0
    trunc_K: float | None = None
    rho_samples: int = 33
    grid: GridPolicy = field(default_factory=GridPolicy)
    tolerances: Tolerances = field(default_factory=Tolerances)
    outdir: str = "out"

    def spec(self) -> PotentialSpec:
        return build_potential(self.potential)

    def config_hash(self, names=None) -> str:
        """sha256 over the scientific payload, or over the fields in names;
        the output directory is excluded so relocated runs share a hash."""
        payload = {k: v for k, v in asdict(self).items()
                   if k != "outdir" and (names is None or k in names)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def validate(self) -> None:
        if int(self.n) != self.n or self.n < 2:
            raise ConfigError("n: need an integer dimension >= 2")
        if not self.p > P_FLOOR:
            raise ConfigError(f"p: need p > {P_FLOOR}")
        check_schedule(self.schedule)
        for name in ("C1", "C2"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name}: must be positive and finite")
        if not self.C1 < 4.0 * self.C2:
            raise ConfigError("C1/C2: configuration window [C1/(2e^3), 2 C2/e^3] is empty")
        if len(self.t_bracket) != 2:
            raise ConfigError("t_bracket: need exactly [lo, hi]")
        lo, hi = self.t_bracket
        if not (0.0 < lo < hi):
            raise ConfigError("t_bracket: need 0 < lo < hi")
        for e in self.schedule:
            first_bracket(e, self.C1, self.C2, self.t_bracket)
        if not self.gamma > 0.0:
            raise ConfigError("gamma: must be positive")
        if not 0.0 < self.beta_floor < 1.0:
            raise ConfigError("beta_floor: must lie in (0, 1)")
        if self.trunc_K is not None and not is_supercritical(self.n, self.p):
            raise ConfigError("trunc_K: needs a supercritical problem, n >= 3 and p > (n+2)/(n-2)")
        if self.trunc_K is not None and not self.trunc_K > 0.0:
            raise ConfigError("trunc_K: must be positive when given")
        check_rho_samples("rho_samples", self.rho_samples)
        g = self.grid
        if not (g.h_reduce > 0.0 and g.h_solve > 0.0):
            raise ConfigError("grid: steps must be positive")
        if g.h_solve > g.h_reduce:
            raise ConfigError("grid: h_solve must not exceed h_reduce")
        if not self.tolerances.solve_tol_coeff > 0.0:
            raise ConfigError("tolerances: solve_tol_coeff must be positive")
        try:
            self.spec().lambda0(float(self.schedule[0]))
        except ConfigError as exc:
            raise ConfigError(f"potential: {exc}") from None


# each family's constructor and parameters, in the constructor's argument
# order, with their defaults
_POTENTIALS = {
    "zero": (PotentialSpec.zero, {}),
    "sine": (PotentialSpec.sine, {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0}),
}


def _canonical_potential(d) -> dict:
    """The potential table with every parameter of its family, as a float
    and defaulted where omitted, so tables that define one potential hash
    alike."""
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError("potential: need a table with a 'family' key")
    fam = d["family"]
    if not isinstance(fam, str) or fam not in _POTENTIALS:
        raise ConfigError(
            f"potential: unknown family '{fam}' (choose from {', '.join(_POTENTIALS)})")
    params = _POTENTIALS[fam][1]
    unknown = set(d) - {"family"} - set(params)
    if unknown:
        raise ConfigError(
            f"potential: unknown key '{sorted(unknown)[0]}' for family '{fam}'")
    return {"family": fam, **{key: _number(f"potential.{key}", d.get(key, default))
                              for key, default in params.items()}}


def build_potential(d: dict) -> PotentialSpec:
    c = _canonical_potential(d)
    return _POTENTIALS[c.pop("family")][0](*c.values())


# each config dataclass's field annotations, evaluated once per process
_hints = functools.cache(typing.get_type_hints)


def _field(name: str, f, hint, value):
    """value as the config field f of type hint holds it, or ConfigError
    naming the field.  A number must be finite (f.metadata's "rule" says
    what a non-finite one breaks), the potential (the one dict field) is
    _canonical_potential's, and a nested table is read by _table."""
    if hint in (int, str):
        if type(value) is not hint:  # a bool is no integer
            raise ConfigError(f"{name}: must be {'an integer' if hint is int else 'a string'}")
        return value
    if hint is dict:
        return _canonical_potential(value)
    if hint is tuple:
        return _numbers(name, value)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: need a table")
        return _table(hint, value, name)
    if value is None and type(None) in typing.get_args(hint):
        return None
    return _number(name, value, f.metadata.get("rule", "finite"))


def _table(cls, data: dict, where: str = ""):
    """An instance of the config dataclass cls from its table data, every
    field coerced by its annotation; where names a nested table."""
    known = {f.name: f for f in fields(cls)}
    prefix = f"{where}: " if where else ""
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{prefix}unknown field '{sorted(unknown)[0]}'")
    missing = [name for name, f in known.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{prefix}missing field '{missing[0]}'")
    hints = _hints(cls)
    return cls(**{name: _field(f"{where}.{name}" if where else name, known[name],
                               hints[name], value) for name, value in data.items()})


def config_from_dict(data: dict) -> RunConfig:
    cfg = _table(RunConfig, data)
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config must be JSON: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)
