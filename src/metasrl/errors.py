"""Exception and warning types shared across the package, and the checks
that a config section names only known keys and holds its required ones,
and that a setting is a count or a real number."""

import numbers
from dataclasses import fields


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


def known_keys(doc, cls, where, required=()):
    """doc, a parsed JSON object, once every key in it is a field of the
    dataclass cls and it holds every key of `required`; InvalidInput naming
    the section `where` otherwise."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"{where} must be a JSON object")
    for kind, keys in (("unknown", sorted(set(doc) - {f.name for f in fields(cls)})),
                       ("missing", [k for k in required if k not in doc])):
        if keys:
            raise InvalidInput(f"{kind} key{'s' * (len(keys) > 1)} "
                               f"{', '.join(map(repr, keys))} in {where}")
    return doc


def check_counts(config, **least):
    """InvalidInput naming the first field `name` of config that is not an
    integer (Python or numpy, not a bool) no less than least[name]."""
    for name, low in least.items():
        value = getattr(config, name)
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= low):
            raise InvalidInput(f"{name} must be an integer >= {low}, got {value!r}")


def is_real(value):
    """True for a real number, Python or numpy, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_reals(config, *names):
    """InvalidInput naming the first field of config among `names` that is
    not `is_real`; the range checks are the caller's."""
    for name in names:
        value = getattr(config, name)
        if not is_real(value):
            raise InvalidInput(f"{name} must be a real number, got {value!r}")


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
