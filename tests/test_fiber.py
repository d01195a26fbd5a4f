"""Analytic spread, generator series, h-vectors, and the Freiman test."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freiman import (
    SimpleGraph,
    analytic_spread,
    check_growth_identities,
    edge_ideal,
    h_vector,
    is_freiman,
    minimalize,
    mu_from_h,
    mu_series,
    with_witness,
)
from freiman.errors import PreconditionError, ResourceCapError
from helpers import brute_ksum, complete_graph, cycle_graph


def principal():
    return minimalize([(2, 1)])


def c4_ideal():
    return edge_ideal(cycle_graph(4))


def k4_ideal():
    return edge_ideal(complete_graph(4))


def test_analytic_spread_examples():
    assert analytic_spread(principal()) == 1
    assert analytic_spread(c4_ideal()) == 3
    assert analytic_spread(k4_ideal()) == 4


def test_analytic_spread_requires_witness():
    bad = minimalize([(3, 0), (2, 2), (0, 3)])
    with pytest.raises(PreconditionError):
        analytic_spread(bad)


def test_mu_series_examples():
    assert mu_series(c4_ideal(), 3) == [1, 4, 9, 16]
    assert mu_series(k4_ideal(), 2) == [1, 6, 19]
    assert mu_series(principal(), 5) == [1, 1, 1, 1, 1, 1]


def test_mu_series_matches_brute_force():
    ideal = with_witness(k4_ideal())
    pts = ideal.generators.points
    assert mu_series(ideal, 3) == [1] + [len(brute_ksum(pts, k)) for k in (1, 2, 3)]


def test_mu_series_cap_is_reported():
    with pytest.raises(ResourceCapError):
        mu_series(k4_ideal(), 3, cap=10)


def test_h_vector_examples():
    assert h_vector([1, 4, 9, 16], 3) == [1, 1, 0, 0]
    assert h_vector([1, 6, 19], 4) == [1, 2, 1]
    assert h_vector([1, 1, 1], 1) == [1, 0, 0]


def test_h_vector_rejects_malformed():
    with pytest.raises(ValueError):
        h_vector([2, 4], 3)
    with pytest.raises(ValueError):
        h_vector([], 3)


def test_h_mu_round_trip_examples():
    for mu, ell in [([1, 4, 9, 16], 3), ([1, 6, 19], 4), ([1, 9, 36, 100], 5)]:
        h = h_vector(mu, ell)
        assert mu_from_h(h, ell, len(mu) - 1) == mu


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=-5, max_value=9), min_size=1, max_size=5),
)
def test_h_mu_round_trip_random(ell, tail):
    h = [1] + tail
    mu = mu_from_h(h, ell, len(h) - 1)
    assert h_vector(mu, ell) == h


def _binomial_sum(coeffs, ell, k):
    """sum_i C(ell+k-i-1, k-i) * coeffs[i] over i <= k, term by term."""
    return sum(comb(ell + k - i - 1, k - i) * c for i, c in enumerate(coeffs[: k + 1]))


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=9),
)
def test_h_vector_and_mu_from_h_match_the_binomial_sums(ell, tail):
    # the product with (1 - t)^ell and the running binomials against the
    # recursion through C(ell+k-i-1, k-i), summed term by term
    mu = [1, *tail]
    h = h_vector(mu, ell)
    for k in range(len(mu)):
        assert h[k] == mu[k] - _binomial_sum(h[:k], ell, k)
    if len(mu) == 3:
        assert h[2] == mu[2] - ell * mu[1] + comb(ell, 2)
    top = len(tail) + 2
    assert mu_from_h(mu, ell, top) == [_binomial_sum(mu, ell, k) for k in range(top + 1)]


def test_is_freiman_examples():
    c4 = is_freiman(c4_ideal())
    assert c4.freiman and c4.h2 == 0 and c4.bound2 == 9
    assert c4.mu_series == (1, 4, 9)
    assert c4.h_partial == (1, 1, 0)

    k4 = is_freiman(k4_ideal())
    assert not k4.freiman and k4.h2 == 1
    assert k4.mu_series == (1, 6, 19) and k4.bound2 == 18

    p = is_freiman(principal())
    assert p.freiman and p.ell == 1 and p.bound2 == 1


def test_profile_internal_identities():
    for ideal in (c4_ideal(), k4_ideal(), principal()):
        prof = is_freiman(ideal)
        assert prof.mu_series[0] == 1 and prof.h_partial[0] == 1
        assert prof.h_partial[1] == prof.mu_series[1] - prof.ell
        assert prof.freiman == (prof.h2 == 0)
        assert prof.h2 == prof.mu_series[2] - prof.bound2


def test_growth_identities_four_cycle():
    report = check_growth_identities(c4_ideal(), 4)
    assert report.mu == (1, 4, 9, 16, 25)
    assert all(row.equality for row in report.rows)
    assert all(row.partial_sum == 0 for row in report.rows)


def test_growth_identities_k4():
    report = check_growth_identities(k4_ideal(), 3)
    assert [row.equality for row in report.rows] == [False, False]
    assert all(row.partial_sum >= 1 for row in report.rows)
    assert all(row.nonnegative for row in report.rows)


def test_growth_identities_principal():
    report = check_growth_identities(principal(), 3)
    assert all(row.equality for row in report.rows)


def _connected_graphs(max_n):
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            g = SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
            if len(g.component_colorings) == 1:
                yield g


def test_growth_partial_sum_is_excess():
    # the tail partial sum equals mu_k minus the lower bound, exactly, on
    # the edge ideal of every connected labeled graph on at most 5 vertices
    connected = [edge_ideal(g) for g in _connected_graphs(5)]
    assert len(connected) == 1 + 4 + 38 + 728
    for ideal in (c4_ideal(), k4_ideal(), *connected):
        report = check_growth_identities(ideal, 4)
        for row in report.rows:
            assert row.partial_sum == row.mu_k - row.lower_bound
