"""The one inverse-CDF draw every sampler in the package shares.

`np.random.Generator.choice(n, p=row)` takes one `random()` u and returns
count(cdf <= u), with cdf = cumsum(row) / cumsum(row)[-1]. `cdf` builds those
rows, checked as choice checks its p, and `draw` counts them against a batch
of uniforms from `rng.random`, so a batched sampler gives the values of one
choice call per draw bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplerError

# Generator.choice rejects probability rows whose sum is off by more than this
CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def cdf(table, what):
    """Normalized cumulative rows of a probability table (last axis).

    Checked as `Generator.choice` checks its p: no NaN or negative entry, and
    every row summing to 1 within CHOICE_ATOL. Normalized the way choice
    normalizes, cumsum(p) / cumsum(p)[-1], so draws match it bit for bit.
    """
    table = np.asarray(table, dtype=float)
    if np.isnan(table).any() or (table < 0).any() \
            or np.abs(table.sum(axis=-1) - 1.0).max() > CHOICE_ATOL:
        raise SamplerError(f"{what} is not a table of probability rows")
    rows = np.cumsum(table, axis=-1)
    return rows / rows[..., -1:]


def draw(cdf_rows, u):
    """One inverse-CDF draw per row: count(cdf <= u), as Generator.choice."""
    return (cdf_rows <= u[:, None]).sum(axis=1)
