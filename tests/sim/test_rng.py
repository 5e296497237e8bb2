"""Tests for deterministic randomness."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import (
    DeterministicRNG,
    keyed_gauss,
    keyed_gauss_array,
    randint,
    stream_key,
)


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(seed=42)
        b = DeterministicRNG(seed=42)
        assert [a.stream("x").random() for _ in range(10)] == [
            b.stream("x").random() for _ in range(10)
        ]

    def test_different_names_different_streams(self):
        rng = DeterministicRNG(seed=42)
        xs = [rng.stream("x").random() for _ in range(10)]
        ys = [rng.stream("y").random() for _ in range(10)]
        assert xs != ys

    def test_different_seeds_different_streams(self):
        a = DeterministicRNG(seed=1)
        b = DeterministicRNG(seed=2)
        assert a.stream("x").random() != b.stream("x").random()

    def test_stream_is_cached(self):
        rng = DeterministicRNG(seed=0)
        assert rng.stream("x") is rng.stream("x")

    def test_new_consumer_does_not_perturb_existing(self):
        """Adding a named stream must not change another stream's draws."""
        a = DeterministicRNG(seed=7)
        first = a.stream("stable").random()

        b = DeterministicRNG(seed=7)
        b.stream("newcomer").random()  # interleaved consumer
        second = b.stream("stable").random()
        assert first == second

    def test_fork_is_deterministic(self):
        a = DeterministicRNG(seed=5).fork("server-1")
        b = DeterministicRNG(seed=5).fork("server-1")
        assert a.stream("x").random() == b.stream("x").random()

    def test_fork_differs_from_parent(self):
        parent = DeterministicRNG(seed=5)
        child = parent.fork("server-1")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_hex_token_shape(self):
        token = DeterministicRNG(seed=1).hex_token("boot", nbytes=16)
        assert len(token) == 32
        int(token, 16)  # must be valid hex

    @given(st.integers(min_value=0, max_value=2**32))
    def test_uniform_in_range(self, seed):
        value = DeterministicRNG(seed=seed).uniform("u", 3.0, 7.0)
        assert 3.0 <= value <= 7.0

    def test_gauss_reproducible(self):
        a = DeterministicRNG(seed=3).gauss("g", 0.0, 1.0)
        b = DeterministicRNG(seed=3).gauss("g", 0.0, 1.0)
        assert a == b


class TestRandint:
    #: interval widths b - a + 1: powers of two, their neighbours, and
    #: the widths the kernel's per-CPU loops draw (19, 21, 241, 601)
    WIDTHS = (1, 2, 19, 21, 241, 256, 257, 601)

    @pytest.mark.parametrize("seed", [0, 7, 20261])
    def test_matches_stdlib_draw_for_draw(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        for n in range(400):
            width = self.WIDTHS[n % len(self.WIDTHS)]
            a = (n % 7) * 13 - 40
            b = a + width - 1
            assert randint(getrandbits, a, b) == ref.randint(a, b)
        # the streams stayed in lockstep: the next raw draw agrees too
        assert ours.random() == ref.random()


class TestKeyedGaussArray:
    INDICES = (0, 1, 2**31, 2**40)

    @staticmethod
    def _keys(n):
        return np.array([stream_key(9, f"k{i}") for i in range(n)], dtype=np.uint64)

    @pytest.mark.parametrize("n", [1, 16, 4096])
    def test_equals_per_index_and_scalar_forms(self, n):
        keys = self._keys(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index in self.INDICES:
                bits = keyed_gauss_array(keys, index, 0.3).view(np.uint64).tolist()
                scalar = np.array([keyed_gauss(int(k), index, 0.3) for k in keys])
                assert bits == scalar.view(np.uint64).tolist()
