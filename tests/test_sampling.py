import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl.sampling import draw_stream


def per_draw(rng, slots, rounds):
    """The draws of `rounds` rounds of scalar rng.random / rng.integers calls."""
    out = [[] for _ in slots]
    for _ in range(rounds):
        for k, n in enumerate(slots):
            out[k].append(rng.random() if n is None else rng.integers(n))
    return [np.array(v) for v in out]


def assert_matches_per_draw(seed, slots, rounds, buffered):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # leave a kept half in the generator's buffer
        rng.integers(10), ref_rng.integers(10)
    got = draw_stream(rng, slots, rounds)
    ref = per_draw(ref_rng, slots, rounds)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype if rounds else g.size == 0
        assert np.array_equal(g, r)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDrawStream:
    """draw_stream against scalar rng.random() / rng.integers(n) calls: the
    same values and the same generator state afterwards."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("slots", [
        (3 * 2 ** 30, None, 2 ** 31 + 1, None),   # 25 % and 50 % rejected
        (2 ** 31 + 1, 3 * 2 ** 30, None),
        (2400, None, 40, None),
        (5, None, 1, None),
        (1, None, 3, None),
        (2 ** 32 - 1, 2 ** 32, None),
        (None,),
        (1,),
    ])
    def test_matches_per_draw_calls(self, slots, buffered):
        for seed in range(3):
            assert_matches_per_draw(seed, slots, 400, buffered)

    @pytest.mark.parametrize("n", [3 * 2 ** 30, 2 ** 31 + 1])
    def test_bounds_force_rejections(self, n):
        # 400 rounds of (integers(n), random()) read 600 words when no half
        # is rejected; with these bounds a quarter and a half of them are
        rng, clean = np.random.default_rng(0), np.random.default_rng(0)
        draw_stream(rng, (n, None), 400)
        clean.bit_generator.advance(600)
        extra = 0
        while clean.bit_generator.state["state"] != rng.bit_generator.state["state"]:
            clean.bit_generator.advance(1)
            extra += 1
            assert extra < 400
        assert extra > 30

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from([None, 1, 2, 7, 2 ** 31 + 1, 2 ** 32]),
                    min_size=1, max_size=5),
           st.integers(0, 60), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_patterns(self, seed, slots, rounds, buffered):
        assert_matches_per_draw(seed, tuple(slots), rounds, buffered)

    def test_rejects_other_bit_generators_and_bounds(self):
        with pytest.raises(TypeError):
            draw_stream(np.random.Generator(np.random.MT19937(0)), (None,), 3)
        rng = np.random.default_rng(0)
        for bad in (0, 2 ** 32 + 1):
            with pytest.raises(ValueError):
                draw_stream(rng, (bad,), 3)
