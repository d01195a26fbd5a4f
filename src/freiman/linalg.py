"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floating point.
The three consumers are affine-hull ranks (Bareiss), matrix-tree
determinants (Bareiss), and the positive-weight feasibility search for
quasi-equigeneration witnesses (nullspace basis + exact simplex).  Only
that search, reached for ideals that are not equigenerated, imports
fractions.
"""

from math import gcd, lcm


def _eliminate(rows):
    """(rank, sign, last pivot) of fraction-free (Bareiss) elimination
    of a matrix with integer rows; sign is -1 after an odd number of row
    swaps.  `rows` is not modified."""
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
    return r, sign, prev


def integer_rank(rows):
    """Rank over Q of a matrix with integer rows."""
    return _eliminate(rows)[0]


def integer_det(rows):
    """Determinant of a square integer matrix: the signed last Bareiss
    pivot, or 0 below full rank."""
    rank, sign, pivot = _eliminate(rows)
    return sign * pivot if rank == len(rows) else 0


def nullspace_basis(rows, ncols):
    """Integer basis of {x in Q^ncols : rows @ x = 0}.

    Row-reduces over Fraction, then clears denominators per basis vector.
    Returns a list of integer tuples (possibly empty).
    """
    from fractions import Fraction

    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in pivots:
            v[c] = -m[i][free]
        denom = lcm(*(x.denominator for x in v)) if v else 1
        ints = [int(x * denom) for x in v]
        g = gcd(*ints) if any(ints) else 1
        basis.append(tuple(x // g for x in ints))
    return basis


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
    vec = [sum(coeffs[i] * basis[i][j] for i in range(q)) for j in range(ncols)]
    denom = lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
