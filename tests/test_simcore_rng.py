"""Tests for the seeded RNG and its distributions (incl. property tests)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simcore import Rng
from repro.simcore.rng import quantiles


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = Rng(7), Rng(7)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a, b = Rng(7), Rng(8)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        assert Rng(7).fork("net").seed == Rng(7).fork("net").seed

    def test_fork_name_sensitivity(self):
        root = Rng(7)
        assert root.fork("a").seed != root.fork("b").seed

    def test_fork_independent_of_consumption(self):
        a = Rng(7)
        a.random()
        b = Rng(7)
        assert a.fork("x").seed == b.fork("x").seed

    def test_nested_fork_paths_distinct(self):
        root = Rng(7)
        assert root.fork("a").fork("b").seed != root.fork("b").fork("a").seed


class TestDistributions:
    def test_uniform_bounds(self, rng):
        for _ in range(200):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_randint_inclusive(self, rng):
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_exponential_mean(self, rng):
        n = 5000
        mean = sum(rng.exponential(10.0) for _ in range(n)) / n
        assert mean == pytest.approx(10.0, rel=0.1)

    def test_exponential_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_lognormal_median(self, rng):
        samples = sorted(rng.lognormal_median(100.0, 0.5) for _ in range(4001))
        assert samples[2000] == pytest.approx(100.0, rel=0.12)

    def test_lognormal_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            rng.lognormal_median(0.0, 0.5)

    def test_bernoulli_frequency(self, rng):
        hits = sum(rng.bernoulli(0.25) for _ in range(8000))
        assert hits / 8000 == pytest.approx(0.25, abs=0.03)

    def test_poisson_mean_small_lambda(self, rng):
        n = 4000
        mean = sum(rng.poisson(3.0) for _ in range(n)) / n
        assert mean == pytest.approx(3.0, rel=0.1)

    def test_poisson_large_lambda_uses_normal(self, rng):
        n = 2000
        mean = sum(rng.poisson(200.0) for _ in range(n)) / n
        assert mean == pytest.approx(200.0, rel=0.05)

    def test_poisson_zero(self, rng):
        assert rng.poisson(0) == 0

    def test_poisson_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.poisson(-1.0)


class TestQuantiles:
    def test_simple_median(self):
        assert quantiles([1, 2, 3, 4, 5], (0.5,)) == [3]

    def test_interpolation(self):
        assert quantiles([0, 10], (0.25,)) == [2.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantiles([], (0.5,))

    def test_out_of_range_point_rejected(self):
        with pytest.raises(ValueError):
            quantiles([1, 2], (1.5,))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @example([5e-324, 5e-324])  # the interpolated median once underflowed to 0.0
    def test_quantiles_bounded_by_extremes(self, values):
        q0, q50, q100 = quantiles(values, (0.0, 0.5, 1.0))
        assert q0 == min(values)
        assert q100 == max(values)
        assert min(values) <= q50 <= max(values)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_quantiles_monotone_in_q(self, values, qa, qb):
        lo, hi = sorted((qa, qb))
        a, b = quantiles(values, (lo, hi))
        # allow one ulp of interpolation rounding on equal neighbours
        assert a <= b + 1e-9 * max(1.0, abs(b))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_fork_seed_in_range(seed, name):
    child = Rng(seed).fork(name)
    assert 0 <= child.seed < 2**63
