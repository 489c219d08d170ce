"""Exception types shared across the package."""


class MutationDomainError(ArithmeticError):
    """A Y-seed mutation hit a pole (Y_k = 0 or a factor 1 + Y_k^{-1} = 0)."""

    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(message or f"mutation at vertex {vertex} hit a pole")


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
