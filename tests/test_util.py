"""Unit and property tests for repro.util.numbers."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    ceil_div,
    clamp,
    divisors,
    pow2_range,
    resolve_workers,
    tile_candidates,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_one(self):
        assert ceil_div(1, 4) == 1

    def test_zero_dividend(self):
        assert ceil_div(0, 4) == 0

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    def test_rejects_negative_dividend(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 4)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_definition(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or q == 0


class TestClamp:
    def test_inside(self):
        assert clamp(5, 1, 10) == 5

    def test_below(self):
        assert clamp(0, 1, 10) == 1

    def test_above(self):
        assert clamp(11, 1, 10) == 10

    def test_empty_range(self):
        with pytest.raises(ValueError):
            clamp(5, 10, 1)


class TestDivisors:
    def test_of_12(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_of_prime(self):
        assert divisors(13) == [1, 13]

    def test_of_one(self):
        assert divisors(1) == [1]

    def test_perfect_square(self):
        assert divisors(16) == [1, 2, 4, 8, 16]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(1, 5000))
    def test_every_divisor_divides(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(set(ds))
        assert 1 in ds and n in ds


class TestPow2Range:
    def test_basic(self):
        assert pow2_range(1, 16) == [1, 2, 4, 8, 16]

    def test_from_mid(self):
        assert pow2_range(3, 20) == [4, 8, 16]

    def test_empty(self):
        assert pow2_range(17, 16) == []

    def test_low_below_one(self):
        assert pow2_range(0, 4) == [1, 2, 4]


class TestTileCandidates:
    def test_contains_one_and_cap(self):
        cands = tile_candidates(100, 40)
        assert 1 in cands
        assert 40 in cands
        assert max(cands) <= 40

    def test_includes_divisors(self):
        cands = tile_candidates(24, 24)
        for d in (2, 3, 4, 6, 8, 12, 24):
            assert d in cands

    def test_exhaustive(self):
        assert tile_candidates(10, 5, exhaustive=True) == [1, 2, 3, 4, 5]

    def test_quantum_included(self):
        cands = tile_candidates(100, 100, quantum=16)
        assert 16 in cands

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            tile_candidates(0, 4)

    def test_upper_below_one_clamped(self):
        assert tile_candidates(10, 0) == [1]

    @given(
        st.integers(1, 4096),
        st.integers(1, 4096),
        st.sampled_from([1, 8, 16]),
    )
    def test_all_candidates_in_range(self, bound, upper, quantum):
        cands = tile_candidates(bound, upper, quantum=quantum)
        cap = min(bound, max(1, upper))
        assert cands == sorted(set(cands))
        assert all(1 <= t <= cap for t in cands)
        assert 1 in cands and cap in cands


class TestResolveWorkers:
    def test_zero_and_auto_track_cpu_count(self):
        cores = os.cpu_count() or 1
        assert resolve_workers(0) == max(1, min(8, cores))
        assert resolve_workers("auto") == resolve_workers(0)

    def test_positive_passes_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    @pytest.mark.parametrize("bad", [-1, "many", 1.5, True, None])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError, match="^workers must be"):
            resolve_workers(bad)

    def test_messages_name_the_knob(self):
        with pytest.raises(
            ValueError, match=r"^jobs must be >= 0 \(0 = auto\), got -1$"
        ):
            resolve_workers(-1, name="jobs")
        with pytest.raises(
            ValueError,
            match=r"^jobs must be an integer >= 0 or 'auto', got 'many'$",
        ):
            resolve_workers("many", name="jobs")
