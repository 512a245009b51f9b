"""Exception types shared across the package."""


class GridError(ValueError):
    """Invalid grid, or grid/data mismatch."""


class DomainError(ValueError):
    """Evaluation requested outside an operation's domain of validity."""


class ParameterError(ValueError):
    """Parameters violate a documented precondition."""


class CertificationError(RuntimeError):
    """A numerical certificate could not be established."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ShootingError(RuntimeError):
    """Shooting solver failed to bracket or to reach the far-field regime."""

    def __init__(self, message, scanned=None):
        super().__init__(message)
        self.scanned = scanned


class NewtonError(RuntimeError):
    """Newton iteration did not converge; carries the residual history."""

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = list(residuals)


class StepFailureError(RuntimeError):
    """Time stepping failed after the step-size floor was reached."""

    def __init__(self, message, t, dt, residuals=()):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.residuals = list(residuals)
