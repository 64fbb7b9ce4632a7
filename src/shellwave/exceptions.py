"""Exception hierarchy for shellwave.

ConfigError maps to CLI exit code 2, SolverError and subclasses to exit
code 3.  Everything derives from ShellwaveError so callers can catch the
whole family at once.
"""


class ShellwaveError(Exception):
    """Base class for all package errors."""


class ConfigError(ShellwaveError):
    """Invalid configuration or input validation failure."""


class SolverError(ShellwaveError):
    """Base class for numerical failures."""


class OutOfConfigurationSet(SolverError):
    """A radius or parameter left the admissible set (e.g. rho outside Omega_eps)."""


class ToleranceNotReached(SolverError):
    """Adaptive refinement stalled before reaching the requested tolerance."""


class EigensolverError(SolverError):
    """The eigenvalue backend failed to converge."""


class EllipticityViolation(SolverError):
    """1 + eps^2 V dropped to zero or below somewhere it was evaluated."""


class NoCriticalPoint(SolverError):
    """The effective-potential derivative has no sign change in the bracket."""


class DegenerateCriticalPoint(SolverError):
    """Critical radius found, but |M''| is below the requested floor."""


class HessianSingular(SolverError):
    """Projected Hessian (bordered system) is numerically singular."""


class NewtonDivergence(SolverError):
    """Damped Newton failed to reduce the residual to tolerance."""


class ConvergedToZero(SolverError):
    """Newton collapsed onto the trivial zero branch."""


class TruncationSaturated(SolverError):
    """A truncated supercritical solve converged with sup u >= K."""


class NoSignChange(SolverError):
    """A scalar root bracket does not change sign."""


class BranchSwitch(SolverError):
    """A continuation member sits on another branch than the one before it."""


class InsufficientFamily(ShellwaveError):
    """An operation needs more family members than were supplied."""
