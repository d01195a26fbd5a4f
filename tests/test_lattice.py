"""Sumset arithmetic against brute-force oracles and the doubling bounds."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freiman import (
    PointSet,
    ResourceCapError,
    affine_dim,
    dilate,
    edge_ideal,
    freiman_lower_bound,
    generalized_lower_bound,
    minimalize,
    mu_series,
    power,
    sumset,
)
from freiman import lattice
from helpers import (
    brute_affine_dim,
    brute_ksum,
    complete_graph,
    cycle_graph,
    edge_vectors,
    vadd,
)

C4 = PointSet.of(edge_vectors(cycle_graph(4)))
K4 = PointSet.of(edge_vectors(complete_graph(4)))
C6 = PointSet.of(edge_vectors(cycle_graph(6)))


def test_sumset_identity_point():
    z = PointSet.of([(0,)])
    assert sumset(z, z).sorted_points() == [(0,)]


def test_sumset_four_cycle_doubling():
    # 10 unordered pairs, one collision: (1,1,0,0)+(0,0,1,1) = (0,1,1,0)+(1,0,0,1)
    doubled = sumset(C4, C4)
    assert len(doubled) == 9
    assert doubled.points == brute_ksum(C4.points, 2)


def test_sumset_k4_doubling():
    # 21 unordered pairs; the 3 perfect matchings all sum to (1,1,1,1)
    doubled = sumset(K4, K4)
    assert len(doubled) == 19
    assert doubled.points == brute_ksum(K4.points, 2)


def test_sumset_dimension_mismatch():
    with pytest.raises(ValueError):
        sumset(PointSet.of([(1, 0)]), PointSet.of([(1, 0, 0)]))


def test_dilate_identity():
    assert dilate(C4, 1) is C4


def test_dilate_four_cycle_cube():
    assert len(dilate(C4, 3)) == 16
    assert dilate(C4, 3).points == brute_ksum(C4.points, 3)


def test_dilate_six_cycle_square():
    # all 21 unordered pairs distinct: no degree-2 relations in the 6-cycle
    assert len(dilate(C6, 2)) == 21


def test_dilate_rejects_zero():
    with pytest.raises(ValueError):
        dilate(C4, 0)


def test_affine_dim_single_point():
    assert affine_dim(PointSet.of([(3, 5, 1)])) == 0


def test_affine_dim_examples():
    assert affine_dim(C4) == 2
    assert affine_dim(K4) == 3


def test_affine_dim_empty_rejected():
    with pytest.raises(ValueError):
        affine_dim(PointSet(2, frozenset()))


def test_freiman_lower_bound_values():
    assert freiman_lower_bound(1, 0) == 1
    assert freiman_lower_bound(4, 2) == 9
    assert freiman_lower_bound(6, 3) == 18  # compare |2X| = 19 for K4


def test_generalized_lower_bound_values():
    assert generalized_lower_bound(5, 3, 1) == 5
    assert generalized_lower_bound(4, 3, 2) == 9
    assert generalized_lower_bound(4, 3, 3) == 16  # |3X| = 16 for the 4-cycle


def test_generalized_bound_specializations():
    for m in range(1, 8):
        for ell in range(1, 6):
            assert generalized_lower_bound(m, ell, 1) == m
            assert generalized_lower_bound(m, ell, 2) == freiman_lower_bound(
                m, ell - 1
            )


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet.of([(1, -1)])
    with pytest.raises(ValueError):
        PointSet(3, frozenset({(1, 0)}))


def _sets_of_dim(dim):
    return st.sets(
        st.tuples(*[st.integers(min_value=0, max_value=6)] * dim),
        min_size=1,
        max_size=7,
    ).map(lambda pts: PointSet.of(pts, ambient_dim=dim))


point_sets = st.integers(min_value=1, max_value=4).flatmap(_sets_of_dim)

point_set_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda dim: st.tuples(_sets_of_dim(dim), _sets_of_dim(dim))
)


@given(point_set_pairs)
def test_sumset_commutes(pair):
    x, y = pair
    assert sumset(x, y).points == sumset(y, x).points


@given(point_sets, st.integers(min_value=2, max_value=4))
def test_dilate_accumulates(x, k):
    assert dilate(x, k).points == sumset(dilate(x, k - 1), x).points


@given(point_sets)
def test_doubling_bound_holds(x):
    assert len(sumset(x, x)) >= freiman_lower_bound(len(x), affine_dim(x))


@settings(max_examples=40)
@given(point_sets, st.integers(min_value=1, max_value=4))
def test_dilation_bound_chain(x, k):
    ell = affine_dim(x) + 1
    assert len(dilate(x, k)) >= generalized_lower_bound(len(x), ell, k)


@given(point_sets, st.integers(min_value=2, max_value=3))
def test_dilate_matches_brute_force(x, k):
    assert dilate(x, k).points == brute_ksum(x.points, k)


@given(point_sets)
def test_affine_dim_matches_brute_force(x):
    assert affine_dim(x) == brute_affine_dim(x.points)


@given(point_sets, st.tuples(*[st.integers(min_value=0, max_value=5)] * 4))
def test_affine_dim_translation_invariant(x, shift):
    t = shift[: x.ambient_dim]
    translated = PointSet.of(
        [tuple(a + b for a, b in zip(p, t)) for p in x.points], x.ambient_dim
    )
    assert affine_dim(translated) == affine_dim(x)


@given(point_sets, st.randoms(use_true_random=False))
def test_affine_dim_permutation_invariant(x, rng):
    perm = list(range(x.ambient_dim))
    rng.shuffle(perm)
    permuted = PointSet.of(
        [tuple(p[i] for i in perm) for p in x.points], x.ambient_dim
    )
    assert affine_dim(permuted) == affine_dim(x)


# Coordinates up to 2^20, with values at the field boundaries mixed in so
# that sums collide and would carry if the packed fields were too narrow.
wide_coordinates = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.sampled_from([2**19, 2**20 - 1, 2**20]),
    st.integers(min_value=0, max_value=2**20),
)


def _wide_sets_of_dim(dim):
    return st.sets(
        st.tuples(*[wide_coordinates] * dim), min_size=1, max_size=6
    ).map(lambda pts: PointSet.of(pts, ambient_dim=dim))


wide_dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=60, deadline=None)
@given(
    wide_dims.flatmap(lambda d: st.tuples(_wide_sets_of_dim(d), _wide_sets_of_dim(d)))
)
def test_packed_sumset_matches_brute_force(pair):
    x, y = pair
    assert sumset(x, y).points == {vadd(a, b) for a in x for b in y}
    assert sumset(x, x).points == brute_ksum(x.points, 2)


@settings(max_examples=60, deadline=None)
@given(wide_dims.flatmap(_wide_sets_of_dim), st.integers(min_value=1, max_value=5))
def test_packed_dilate_matches_brute_force(x, k):
    assert dilate(x, k).points == brute_ksum(x.points, k)


@settings(max_examples=60, deadline=None)
@given(wide_dims.flatmap(_wide_sets_of_dim), st.integers(min_value=1, max_value=5))
def test_packed_mu_series_matches_brute_force(x, k):
    # one more coordinate puts every point at the same positive total
    # degree, so the points are the minimal generators of an equigenerated
    # ideal
    top = max(sum(p) for p in x) + 1
    ideal = minimalize([p + (top - sum(p),) for p in x])
    expected = [1] + [len(brute_ksum(x.points, j)) for j in range(1, k + 1)]
    assert mu_series(ideal, k) == expected


def test_kernel_cap_is_checked_at_every_power():
    ideal = edge_ideal(complete_graph(4))
    sizes = [len(brute_ksum(ideal.generators.points, k)) for k in range(1, 5)]
    for cap in range(sizes[0], sizes[-1] + 1):
        over = next((k for k in range(2, 5) if sizes[k - 1] > cap), None)
        if over is None:
            assert mu_series(ideal, 4, cap=cap) == [1] + sizes
            continue
        message = f"sumset at power {over} exceeds {cap} points"
        with pytest.raises(ResourceCapError, match=message):
            mu_series(ideal, 4, cap=cap)
        with pytest.raises(ResourceCapError, match=message):
            dilate(ideal.generators, 4, cap=cap)
        with pytest.raises(ResourceCapError, match=message):
            power(ideal, 4, cap=cap)


def test_sumset_cap():
    assert len(sumset(K4, K4, cap=19)) == 19
    with pytest.raises(ResourceCapError, match="sumset exceeds 18 points"):
        sumset(K4, K4, cap=18)


def _helper_chain(codes, shifts, cap, top):
    """|A|, |2A|, ..., |top A| through the code-set helpers, and whether
    2A came back as a bitset; or the message of the cap error."""
    try:
        a, last = lattice._doubling(iter(codes), shifts.stop, cap)
        dense = type(last) is int
        sizes = [lattice._size(a), lattice._size(last)]
        for k in range(3, top + 1):
            last = lattice._plus(codes, last, cap, f"sumset at power {k}")
            sizes.append(lattice._size(last))
    except ResourceCapError as exc:
        return str(exc)
    return sizes, dense


# up to 8 coordinates of up to 3, in fields wide enough for 4A: layouts of
# 1 to 32 bits, on both sides of DENSE_BITS = 20
code_sets = st.integers(min_value=1, max_value=8).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda top: st.sets(
                st.tuples(*[st.integers(min_value=0, max_value=top)] * dim),
                min_size=1,
                max_size=8,
            )
        ),
    )
)


@settings(max_examples=80, deadline=None)
@given(code_sets, st.integers(min_value=1, max_value=400))
@example((2, {(0, 3), (1, 1), (3, 0), (2, 2)}), 400)  # 8 bits
@example((6, {(3, 0, 1, 0, 2, 0), (0, 1, 0, 3, 0, 1), (1, 1, 1, 1, 1, 1)}), 400)  # 24 bits
@example((6, {(3, 0, 1, 0, 2, 0), (0, 1, 0, 3, 0, 1), (1, 1, 1, 1, 1, 1)}), 9)  # |3A| = 10
def test_dense_and_sparse_code_sets_agree_with_brute_force(drawn, cap):
    dim, points = drawn
    shifts = lattice._shifts(dim, 4 * max(map(max, points)))
    codes = lattice._pack(points, shifts)
    sizes = [len(brute_ksum(points, k)) for k in range(1, 5)]
    over = next((k for k in range(2, 5) if sizes[k - 1] > cap), None)
    if over is None:
        expected = sizes
    else:
        expected = (
            f"resource cap exceeded: sumset at power {over} exceeds {cap} points (cap {cap})"
        )
    # the default form, then each form forced; a bitset of a layout wider
    # than 24 bits would take more than 2 MB, so it is not forced
    forms = [(lattice.DENSE_BITS, shifts.stop <= lattice.DENSE_BITS), (0, False)]
    if shifts.stop <= 24:
        forms.append((24, True))
    for dense_bits, dense in forms:
        with mock.patch.object(lattice, "DENSE_BITS", dense_bits):
            got = _helper_chain(codes, shifts, cap, 4)
        assert got == (expected if over else (expected, dense)), dense_bits
