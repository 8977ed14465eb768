"""Exception hierarchy shared across the package, and the error policy."""

import numpy as np


class NGCorrError(Exception):
    """Base class for all package-specific errors."""


class InvalidCutoff(NGCorrError):
    """Fock cutoff too small to be meaningful."""


class BadModeIndex(NGCorrError):
    """Mode index out of range or empty keep-set."""


class DimMismatch(NGCorrError):
    """Operands live on different truncated spaces."""


class TruncationError(NGCorrError):
    """Tail mass in the highest Fock level exceeds the configured tolerance."""


class BadSpec(NGCorrError):
    """Malformed state specification."""


class InvalidState(NGCorrError, ValueError):
    """Matrix handed in as a density matrix is not Hermitian or not of unit trace."""


class BadEta(NGCorrError):
    """Transmittance outside [0, 1]."""


class UnphysicalCM(NGCorrError):
    """Covariance matrix violates the uncertainty relation."""


class ConvergenceFailure(NGCorrError):
    """A numerical decomposition failed its self-check."""


class DomainError(NGCorrError, ValueError):
    """Scalar argument outside the domain of a closed-form expression."""


class ZeroWeight(NGCorrError):
    """Postselection probability density numerically vanishes."""


#: Exceptions that flag a result rather than stop the program: named domain
#: errors and failed decompositions.  Any other exception is a bug.
FLAGGED = (NGCorrError, np.linalg.LinAlgError)


def forget_frames(exc):
    """Clear the tracebacks along the context chain of a handled error.  An
    error kept to be raised again (``FockState.derive``, ``figures.Point``)
    gets the frames of each raise, and they hold the state that keeps it."""
    while exc is not None:
        exc.__traceback__ = None
        exc = exc.__context__
