"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floating point.
One fraction-free (Bareiss) elimination serves the three consumers:
affine-hull ranks, matrix-tree determinants, and the positive-weight
feasibility search for quasi-equigeneration witnesses, whose nullspace
basis is back-substituted from the echelon rows before an exact simplex.
Only that search, reached for ideals that are not equigenerated,
imports fractions.
"""

from math import gcd, lcm
from operator import mul


def _eliminate(rows):
    """(rank, sign, last pivot, echelon rows) of fraction-free (Bareiss)
    elimination of a matrix with integer rows; sign is -1 after an odd
    number of row swaps, and each echelon row is zero before its pivot
    column.  `rows` is not modified."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    sign = prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        mr = m[r]
        for i in range(r + 1, nrows):
            mi = m[i]
            f = mi[c]
            for j in range(c, ncols):
                # exact by the Bareiss identity
                mi[j] = (p * mi[j] - f * mr[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r, sign, prev, m[:r]


def integer_rank(rows):
    """Rank over Q of a matrix with integer rows."""
    return _eliminate(rows)[0]


def integer_det(rows):
    """Determinant of a square integer matrix: the signed last Bareiss
    pivot, or 0 below full rank."""
    rank, sign, pivot, _ = _eliminate(rows)
    return sign * pivot if rank == len(rows) else 0


def nullspace_basis(rows, ncols):
    """Integer basis of {x in Q^ncols : rows @ x = 0}: one primitive
    vector per free column of the echelon form, positive there, zero at
    the other free columns, and back-substituted at the pivot columns.
    Returns a list of integer tuples (possibly empty)."""
    from fractions import Fraction

    echelon = _eliminate(rows)[3][::-1]
    pivots = [next(c for c, x in enumerate(row) if x) for row in echelon]
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(echelon, pivots):  # bottom up; v[c] is still 0
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
