"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floating point.
Ranks and matrix-tree determinants share one fraction-free (Bareiss)
elimination.  Rows that arrive one at a time fold through one
fraction-free row step into an echelon basis, which the positive-weight
feasibility search for quasi-equigeneration witnesses back-substitutes
into a nullspace basis before an exact simplex.  Only that search,
reached for ideals that are not equigenerated, imports fractions.
"""

from functools import reduce
from math import gcd, lcm
from operator import mul


def _extend_basis(basis, row):
    """The fraction-free row step: basis, a tuple of echelon rows (pivot
    column, row), each zero at the pivots before it, plus what is left
    of the integer row after elimination by them, in lowest terms, if
    that is not zero.  A basis as long as the rows are wide is full."""
    if len(basis) < len(row):
        for p, b in basis:
            if f := row[p]:
                row = [b[p] * x - f * y for x, y in zip(row, b)]
        if any(row):
            if (c := gcd(*row)) > 1:
                row = [x // c for x in row]
            basis += ((next(j for j, x in enumerate(row) if x), row),)
    return basis


def _bareiss(rows):
    """(rank, sign, last pivot) of fraction-free (Bareiss) elimination of
    a matrix with integer rows; sign is -1 after an odd number of row
    swaps.  `rows` is not modified."""
    m = [list(r) for r in rows]
    r = 0
    sign = prev = 1
    for c in range(len(m[0]) if m else 0):
        if (piv := next((i for i in range(r, len(m)) if m[i][c]), None)) is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        mr, p = m[r], m[r][c]
        for mi in m[r + 1 :]:
            f = mi[c]
            for j in range(c, len(mr)):
                mi[j] = (p * mi[j] - f * mr[j]) // prev  # exact by the Bareiss identity
        prev = p
        r += 1
        if r == len(m):
            break
    return r, sign, prev


def integer_rank(rows):
    """Rank over Q of a matrix with integer rows."""
    return _bareiss(rows)[0]


def integer_det(rows):
    """Determinant of a square integer matrix: the signed last Bareiss
    pivot, or 0 below full rank."""
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


def nullspace_basis(rows, ncols):
    """Integer basis of {x in Q^ncols : rows @ x = 0}: one primitive
    vector per free column of the echelon form, positive there, zero at
    the other free columns, and back-substituted at the pivot columns.
    Returns a list of integer tuples (possibly empty)."""
    from fractions import Fraction

    echelon = reduce(_extend_basis, rows, ())[::-1]
    pivots = [c for c, _ in echelon]
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[free] = 1
        for c, row in echelon:  # bottom up; v[c] is still 0
            v[c] = Fraction(-sum(map(mul, row, v)), row[c])
        basis.append(_primitive(v))
    return basis


def _primitive(vec):
    """The rational vector vec, not zero, scaled to coprime integers."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _simplex_max(c, a, b):
    """Maximize c.x subject to a @ x <= b, x >= 0, with b >= 0.

    Dense tableau simplex with Bland's rule; all entries Fraction.
    Returns (optimum, x).  The callers only pose bounded programs.
    """
    from fractions import Fraction

    nvars = len(c)
    ncons = len(a)
    tab = []
    for i in range(ncons):
        row = [Fraction(v) for v in a[i]]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(ncons)]
        row.append(Fraction(b[i]))
        tab.append(row)
    z = [Fraction(v) for v in c] + [Fraction(0)] * (ncons + 1)
    basis = [nvars + i for i in range(ncons)]
    total = nvars + ncons
    while True:
        enter = next((j for j in range(total) if z[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(ncons):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("unbounded linear program")
        r = best[1]
        pv = tab[r][enter]
        tab[r] = [v / pv for v in tab[r]]
        for i in range(ncons):
            if i != r and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[r])]
        if z[enter] != 0:
            f = z[enter]
            z = [v - f * w for v, w in zip(z, tab[r])]
        basis[r] = enter
    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = tab[i][-1]
    return -z[-1], x


def positive_nullspace_vector(rows, ncols):
    """A strictly positive integer vector orthogonal to every row, or None.

    Parametrizes the nullspace by an integer basis B and solves, exactly,
        maximize t   s.t.   (B x)_j >= t  and  (B x)_j <= 1  for all j,
    which has optimum > 0 iff the nullspace meets the open positive orthant.
    The returned vector is the optimizer scaled to coprime integers, which
    makes the output deterministic.
    """
    basis = nullspace_basis(rows, ncols)
    q = len(basis)
    if q == 0:
        return None
    # variables: x split into u - w (2q columns), then t
    nv = 2 * q + 1
    cons = []
    rhs = []
    for j in range(ncols):
        row = [-basis[i][j] for i in range(q)]
        row += [basis[i][j] for i in range(q)]
        row.append(1)  # +t
        cons.append(row)
        rhs.append(0)
    for j in range(ncols):
        row = [basis[i][j] for i in range(q)]
        row += [-basis[i][j] for i in range(q)]
        row.append(0)
        cons.append(row)
        rhs.append(1)
    obj = [0] * (2 * q) + [1]
    opt, x = _simplex_max(obj, cons, rhs)
    if opt <= 0:
        return None
    coeffs = [x[i] - x[q + i] for i in range(q)]
    return _primitive(
        [sum(coeffs[i] * basis[i][j] for i in range(q)) for j in range(ncols)]
    )
