"""Exception types shared across the package."""


class LoopPropertyError(RuntimeError):
    """The mutated quiver did not return to its start under nu."""


class FixedPointError(RuntimeError):
    """An assembled candidate fixed point failed its defining residual check."""

    def __init__(self, residuals, message):
        self.residuals = residuals
        super().__init__(message)


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""

    def __init__(self, last_residual, message):
        self.last_residual = last_residual
        super().__init__(message)
