"""Monomial ideals as minimal generator sets.

A monomial is identified with its exponent vector (a tuple of nonnegative
integers); an ideal is the antichain of exponent vectors of its unique
minimal generating set, optionally carrying a quasi-equigeneration witness
(a, d): a strictly positive integer weight vector with <a, c> = d for
every generator c.
"""

from .errors import PreconditionError, Record
from .lattice import PointSet, dilate
from .linalg import positive_nullspace_vector

Monomial = tuple  # exponent vector of a single monomial


def _divides(a, b):
    """Whether x^a divides x^b, i.e. a <= b coordinatewise."""
    return all(x <= y for x, y in zip(a, b))


class MonomialIdeal(Record):
    """A proper nonzero monomial ideal, stored as its minimal generators."""

    ambient_dim: int
    generators: PointSet
    witness: tuple | None = None  # ((a_1, ..., a_n), d)

    def __post_init__(self):
        gens = self.generators
        if gens.ambient_dim != self.ambient_dim:
            raise ValueError("generator set has the wrong ambient dimension")
        if not gens.points:
            raise ValueError("the zero ideal is not supported")
        pts = gens.sorted_points()
        zero = (0,) * self.ambient_dim
        if zero in gens.points:
            raise ValueError("the unit ideal is not supported")
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                if _divides(p, q) or _divides(q, p):
                    raise ValueError(
                        f"generators are not an antichain: {p} and {q} are comparable"
                    )
        self._check_witness()

    def _check_witness(self):
        if self.witness is None:
            return
        a, d = self.witness
        if len(a) != self.ambient_dim or any(x < 1 for x in a):
            raise ValueError("witness weights must be strictly positive")
        if d < 1:
            raise ValueError("witness degree must be positive")
        for c in self.generators.points:
            if sum(w * e for w, e in zip(a, c)) != d:
                raise ValueError(f"witness does not hold on generator {c}")

    @property
    def mu(self):
        """Minimal number of generators."""
        return len(self.generators)


def _fresh_ideal(ambient_dim, points, witness):
    # internal constructor for generator sets already known to be minimal
    return MonomialIdeal._trusted(ambient_dim, PointSet._trusted(ambient_dim, points), witness)


def minimalize(monomials, ambient_dim=None) -> MonomialIdeal:
    """The antichain of coordinatewise-minimal exponent vectors among
    `monomials`, as a MonomialIdeal."""
    vecs = [tuple(m) for m in monomials]
    if not vecs:
        raise ValueError("cannot build an ideal from no monomials")
    if ambient_dim is None:
        ambient_dim = len(vecs[0])
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("monomials have mixed ambient dimensions")
    # sort by total degree so earlier elements can never be divided by later ones
    vecs = sorted(set(vecs), key=lambda v: (sum(v), v))
    minimal = []
    for v in vecs:
        if not any(_divides(m, v) for m in minimal):
            minimal.append(v)
    return MonomialIdeal(ambient_dim, PointSet(ambient_dim, frozenset(minimal)))


def power(ideal: MonomialIdeal, k: int, cap=None) -> MonomialIdeal:
    """Minimal generators of ideal^k.

    With a quasi-equigeneration witness the k-fold sumset of the generator
    exponents is already minimal (equal weighted degree rules out strict
    divisibility), so no minimalization pass is needed.  Without one, the
    k-fold products are minimalized.  Raises ResourceCapError if an
    intermediate sumset would exceed `cap` points.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return ideal
    pts = dilate(ideal.generators, k, cap=cap)
    if ideal.witness is not None:
        a, d = ideal.witness
        return MonomialIdeal._trusted(ideal.ambient_dim, pts, (a, k * d))
    return minimalize(pts.points, ideal.ambient_dim)


def quasi_equigenerated_witness(ideal: MonomialIdeal):
    """A strictly positive integer weight vector a and degree d with
    <a, c> = d for every generator exponent c, or None if none exists.

    Equigenerated ideals (all generators of equal total degree) get
    a = (1, ..., 1) directly.  Otherwise the direction space spanned by
    generator differences is computed exactly and searched for a strictly
    positive vector in its orthogonal complement; among the solutions the
    deterministic search finds, the one scaled to coprime integers is
    returned, so repeated runs agree.
    """
    if ideal.witness is not None:
        return ideal.witness
    pts = ideal.generators.sorted_points()
    degrees = {sum(p) for p in pts}
    if len(degrees) == 1:
        return ((1,) * ideal.ambient_dim, degrees.pop())
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    a = positive_nullspace_vector(diffs, ideal.ambient_dim)
    if a is None:
        return None
    d = sum(w * e for w, e in zip(a, base))
    return (a, d)


def with_witness(ideal: MonomialIdeal) -> MonomialIdeal:
    """The same ideal carrying a witness; raises PreconditionError when the
    ideal is not quasi-equigenerated."""
    if ideal.witness is not None:
        return ideal
    w = quasi_equigenerated_witness(ideal)
    if w is None:
        raise PreconditionError(
            "ideal is not quasi-equigenerated: no strictly positive weight "
            "vector grades all generators equally"
        )
    return MonomialIdeal._trusted(ideal.ambient_dim, ideal.generators, w)
