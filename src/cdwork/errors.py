"""Exception and warning types shared across the package, and ``named``."""


class CdworkError(Exception):
    """Base class for all package errors."""


class NonHermitianInput(CdworkError):
    """An operator failed its Hermiticity check."""


class DegeneracyError(CdworkError):
    """A degenerate eigenpair is coupled by the drive, so the
    counterdiabatic term is undefined there."""


class StepNotConverged(CdworkError):
    """Time stepping failed the step-halving convergence contract."""


class TruncationError(CdworkError):
    """The truncated basis is too small for the requested computation."""


class QuadratureNotConverged(CdworkError):
    """Adaptive quadrature missed its tolerance within its node budget."""


class NotAState(CdworkError):
    """A matrix failed the density-operator checks (trace one, PSD)."""


class InvalidDetuning(CdworkError):
    """The requested frequency ramp is not reachable at the given
    sideband detuning (the laser-induced potential would flip sign)."""


class SupercriticalDrive(CdworkError):
    """The closed-form driven-oscillator spectrum does not exist
    because the drive ratio reaches or exceeds one."""


class ProtocolError(CdworkError):
    """A parameter path violates the protocol contract."""


class BandStructureError(CdworkError):
    """A matrix handed to a structured eigensolver couples entries the
    solver's band structure excludes."""


class ConfigError(CdworkError):
    """Invalid or unknown run-configuration input."""


class DegenerateGaugeWarning(UserWarning):
    """Two eigenvalues are close enough that the phase gauge, while
    still fixed deterministically, may be unstable under perturbation."""


class ValidityWarning(UserWarning):
    """A physical validity constraint is only marginally satisfied."""


def named(key: str, func, *args, reads: str | None = None):
    """func(*args), with a ConfigError prefixed by the name of the
    argument it comes from, and a FloatingPointError (a value past float
    range) by the stage, func, and the configuration keys it reads
    (default: key)."""
    try:
        return func(*args)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{func.__name__}, reading {reads or key}: {exc}") from None
