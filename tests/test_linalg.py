"""Exact linear algebra kernels against Fraction-based oracles."""

from hypothesis import given
from hypothesis import strategies as st

from freiman.linalg import (
    integer_det,
    integer_rank,
    nullspace_basis,
    positive_nullspace_vector,
)
from helpers import brute_nullspace, brute_rank

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * ncols),
        min_size=1,
        max_size=6,
    )
)


@given(matrices)
def test_rank_matches_fraction_elimination(rows):
    assert integer_rank(rows) == brute_rank(rows)


def test_det_small_cases():
    assert integer_det([]) == 1
    assert integer_det([[7]]) == 7
    assert integer_det([[1, 2], [3, 4]]) == -2
    assert integer_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_det([[1, 2], [2, 4]]) == 0


@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4),
        min_size=4,
        max_size=4,
    )
)
def test_det_by_cofactor_expansion(rows):
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rows = [list(r) for r in rows]
    assert integer_det(rows) == cofactor_det(rows)


# tall matrices, zero rows and the empty matrix included
nullspace_cases = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.tuples(
        st.lists(
            st.one_of(
                st.just((0,) * ncols),
                st.tuples(*[st.integers(min_value=-9, max_value=9)] * ncols),
            ),
            max_size=12,
        ),
        st.just(ncols),
    )
)


@given(nullspace_cases)
def test_nullspace_matches_fraction_gauss_jordan(case):
    rows, ncols = case
    basis = nullspace_basis(rows, ncols)
    assert basis == brute_nullspace(rows, ncols)
    assert len(basis) == ncols - integer_rank(rows)


def test_positive_vector_simple_hyperplane():
    # orthogonal complement of (3, -1) meets the positive orthant at (1, 3)
    assert positive_nullspace_vector([[3, -1]], 2) == (1, 3)


def test_positive_vector_absent():
    # complement of span{(1,0),(0,1)} is {0}
    assert positive_nullspace_vector([[1, 0], [0, 1]], 2) is None
    # complement of (1, -1), (1, 1) is {0} as well
    assert positive_nullspace_vector([[1, -1], [1, 1]], 2) is None


def test_positive_vector_sign_obstruction():
    # a must satisfy a1 = -a2: never strictly positive
    assert positive_nullspace_vector([[1, 1]], 2) is None


def test_positive_vector_full_space():
    assert positive_nullspace_vector([], 3) == (1, 1, 1)


@given(matrices)
def test_positive_vector_is_valid_when_found(rows):
    ncols = len(rows[0])
    vec = positive_nullspace_vector(rows, ncols)
    if vec is not None:
        assert all(x >= 1 for x in vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(*[st.integers(min_value=1, max_value=5)] * n),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
def test_positive_vector_found_when_one_exists(args):
    # rows are built orthogonal to a known positive vector, so the search
    # must succeed (completeness, not just soundness)
    n, seeds = args
    target = seeds[0]
    tt = sum(t * t for t in target)
    rows = []
    for other in seeds[1:]:
        ot = sum(o * t for o, t in zip(other, target))
        row = [ot * t - tt * o for t, o in zip(target, other)]
        if any(row):
            rows.append(row)
    vec = positive_nullspace_vector(rows, n)
    assert vec is not None
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0
