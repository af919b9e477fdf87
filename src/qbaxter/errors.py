"""Exception types shared across the package."""


class QBaxterError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(QBaxterError, ValueError):
    """Parameters violate a convergence or validity condition."""


class ExclusionPointError(QBaxterError):
    """Spectral parameter lies on (or too close to) a pole of a traced series."""


class ConvergenceError(QBaxterError):
    """Newton refinement of Bethe roots failed; a cut-off trace raises TailCertificateError."""


class TailCertificateError(QBaxterError):
    """The open Fock trace's two sums disagreed within its level budget, or that is below 2N + 4."""


class OverflowGuardError(QBaxterError):
    """A log-bookkept operator was asked to materialize entries outside floating range."""
