"""Exception and warning types shared across the package."""


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericalFailure(RuntimeError):
    """A linear solve or LP did not converge to the required tolerance."""

    def __init__(self, message, best_bound=None):
        super().__init__(message)
        self.best_bound = best_bound


class DegenerateRun(RuntimeError):
    """CRPO finished without any reward-ascent step; its outcome returns the
    last iterate."""

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class DegenerateEstimate(RuntimeError):
    """An estimated distribution had no mass to normalize."""


class SamplerError(RuntimeError):
    """An environment step-sampler failed during a sampled-critic run."""


class GenerationFailure(RuntimeError):
    """Task generation exhausted its retry budget."""


class CoverageWarning(UserWarning):
    """Off-policy data left some target-support state-actions uncovered."""
