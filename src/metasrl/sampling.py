"""How numpy's Generator draws, reproduced in batches.

This is the one module that knows how `np.random.Generator` over PCG64 (the
bit generator `default_rng` builds) turns its 64-bit words into draws:

- `random()` takes one word w and returns (w >> 11) * 2**-53.
- `choice(n, p=row)` is one `random()` u followed by count(cdf <= u), with
  cdf = cumsum(row) / cumsum(row)[-1] (`cdf` and `draw`).
- `integers(n)` with 1 < n <= 2**32 takes a 32-bit half x and uses Lemire's
  method: with m = x * n it rejects x, and takes the next half, when
  m mod 2**32 < (2**32 - n) mod n, and otherwise returns m >> 32.
  `integers(1)` draws nothing.
- The 32-bit halves come from a one-word buffer in the bit generator. A
  request that finds it empty takes a new word, returns its low half and
  keeps the high half, which the next request returns. `random()` leaves
  the buffer alone.

The batched samplers built on these draw many values at once and give the
values, and the generator state, of the per-draw calls bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplerError

# Generator.choice rejects probability rows whose sum is off by more than this
CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

_LOW = np.uint64(0xFFFFFFFF)


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


def draw_stream(rng, slots, rounds):
    """The draws of `rounds` rounds of per-draw calls, made in one batch.

    Each round calls, in slot order, `rng.random()` for a slot None and
    `rng.integers(n)` for a slot n (1 <= n <= 2**32). Returns one array per
    slot, of length `rounds`: float uniforms or int64 integers. rng must run
    on PCG64 and is left in the state the per-draw calls leave.

    The words are read with `random_raw`, assuming no integer is rejected.
    A rejection restarts the batch at the rejected draw, from the word and
    buffer state it left; its chance is below n / 2**32 a draw. Temporaries
    take some 100 bytes a request, so callers draw long streams in chunks.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError("draw_stream reproduces PCG64 streams only")
    if any(n is not None and not 1 <= n <= 2 ** 32 for n in slots):
        raise ValueError("integer bounds must lie in [1, 2**32]")
    drawing = [k for k, n in enumerate(slots) if n != 1]
    # bound of each request of a round (0 marks random()), and the leftover
    # below which Lemire's method rejects a half
    pattern = np.array([slots[k] or 0 for k in drawing], dtype=np.uint64)
    limit = np.array([(2 ** 32 - n) % n if n else 0 for n in pattern.tolist()],
                     dtype=np.uint64)
    out = np.empty(rounds * pattern.size, dtype=np.uint64)
    state = bitgen.state
    has_half, half = state["has_uint32"], state["uinteger"]
    pending = np.empty(0, dtype=np.uint64)    # words read but not yet used
    done = 0
    while done < out.size:
        req = np.arange(done, out.size) % pattern.size   # slot of each request
        b = pattern[req]
        is_half = b > 0
        half_pos = np.flatnonzero(is_half)
        # a half request takes a new word on even parity, the kept half on odd
        odd = (np.arange(has_half, has_half + half_pos.size) % 2).astype(bool)
        takes_word = ~is_half
        takes_word[half_pos[~odd]] = True
        taken = np.cumsum(takes_word.astype(np.intp))  # 1-based word index
        if taken[-1] > pending.size:
            pending = np.concatenate(
                [pending, bitgen.random_raw(taken[-1] - pending.size)])
        # word 0 holds the half kept from before; a half comes from the
        # last new word taken by a half request
        words = np.concatenate([[np.uint64(half) << np.uint64(32)], pending])
        hw = words[np.maximum.accumulate(np.where(odd, 0, taken[half_pos]))]
        m = np.where(odd, hw >> np.uint64(32), hw & _LOW) * b[half_pos]
        rejected = np.flatnonzero((m & _LOW) < limit[req[half_pos]])
        vals = words[taken] >> np.uint64(11)
        vals[half_pos] = m >> np.uint64(32)
        # settle the requests before the first rejection; the rejected one
        # is made again from the buffer state and word it left
        if rejected.size:
            stop, last = int(half_pos[rejected[0]]), int(rejected[0]) + 1
            used = int(taken[stop])
        else:
            stop, last, used = b.size, half_pos.size, int(taken[-1])
        out[done:done + stop] = vals[:stop]
        if last:
            has_half = int(not odd[last - 1])
            half = int(hw[last - 1] >> np.uint64(32))
        pending = pending[used:]
        done += stop
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bitgen.state = state

    out = out.reshape(rounds, len(drawing))
    result = [np.zeros(rounds, dtype=np.int64) for _ in slots]
    for col, k in enumerate(drawing):
        if slots[k] is None:
            result[k] = out[:, col] * 2.0 ** -53
        else:
            result[k] = out[:, col].astype(np.int64)
    return result
