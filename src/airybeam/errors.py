"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """An input would drive an intermediate quantity out of floating range."""


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach its accuracy target.

    The ``estimate`` attribute carries the best available error estimate.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate
