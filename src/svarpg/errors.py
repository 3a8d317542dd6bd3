"""Exception hierarchy shared by all svarpg modules."""

from __future__ import annotations


class SvarpgError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SvarpgError):
    """Model document is structurally malformed."""


class SemanticError(SvarpgError):
    """Model document is well-formed but violates a model invariant."""


class SingularContemporaneousError(SvarpgError):
    """The contemporaneous coefficient matrix leaves I - Phi(0)^T numerically singular."""


class DimensionMismatchError(SvarpgError):
    """Filter operands have incompatible matrix dimensions."""


class SelfPairError(SvarpgError):
    """A direct effect filter of a process on itself was requested."""


class NonConvergentError(SvarpgError):
    """A filter series has no convergence certificate: rho(Lambda_0) >= 1 or
    a companion spectral radius is not below one."""


class WindowTooSmallError(SvarpgError):
    """The materialized time window cannot contain all relevant paths."""


class SingularAtFrequencyError(SvarpgError):
    """A per-frequency linear solve failed."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = omega
        super().__init__(message or f"singular system at omega={omega:.6g}")


class LatentPresentError(SvarpgError):
    """Operation requires a model without latent processes."""


class IllConditionedError(SvarpgError):
    """An identification denominator is numerically zero."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = omega
        super().__init__(message or f"ill-conditioned denominator at omega={omega:.6g}")


class NotIdentifiableError(SvarpgError):
    """The requested quantity cannot be recovered from the given spectral density."""


class ConfoundedTargetError(SvarpgError):
    """The regression target has incident bidirected edges."""


class ExplosionError(SvarpgError):
    """Simulated trajectory exceeded the finite-value guard."""


class TooShortError(SvarpgError):
    """Trajectory too short for the requested spectral estimate."""
