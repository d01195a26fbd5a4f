"""Exact lattice-point sets and sumset arithmetic.

Points are tuples of nonnegative integers.  Sumsets are formed on packed
points: each vector becomes one int with a fixed-width bit field per
coordinate, and the width is the bit length of the largest coordinate any
output can hold.  No field can then carry into its neighbour, so adding
two ints adds the vectors and int equality is exactly vector equality;
collisions under addition are the signal everything else is built on.
No floating point is used anywhere.
"""

from itertools import repeat
from math import comb

from .errors import Record, ResourceCapError, effective_cap
from .linalg import integer_rank

ExponentVector = tuple  # tuple[int, ...], coordinates >= 0


class PointSet(Record):
    """A finite, duplicate-free set of lattice points in Z^ambient_dim."""

    ambient_dim: int
    points: frozenset

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError(
                    f"point {p} has length {len(p)}, expected {self.ambient_dim}"
                )
            if any(not isinstance(x, int) or x < 0 for x in p):
                raise ValueError(f"point {p} has a negative or non-integer coordinate")

    @classmethod
    def of(cls, points, ambient_dim=None):
        """Build from an iterable of coordinate sequences, inferring the
        ambient dimension from the first point unless given."""
        pts = frozenset(tuple(p) for p in points)
        if ambient_dim is None:
            if not pts:
                raise ValueError("cannot infer ambient dimension of an empty set")
            ambient_dim = len(next(iter(pts)))
        return cls(ambient_dim, pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def sorted_points(self):
        return sorted(self.points)


def _shifts(dim, top):
    """Bit offsets of coordinate fields wide enough for values up to top."""
    width = max(top.bit_length(), 1)
    return range(0, dim * width, width)


def _top(x: PointSet) -> int:
    return max(map(max, x.points), default=0)


def _pack(points, shifts):
    return [sum(map(int.__lshift__, p, shifts)) for p in points]


def _unpack(codes, shifts):
    mask = (1 << shifts.step) - 1
    return frozenset(tuple(c >> s & mask for s in shifts) for c in codes)


def _packed_sum(rows, cap, what):
    """{a + b : (a, bs) in rows, b in bs} on packed points, with the cap
    checked after each row."""
    out = set()
    for a, bs in rows:
        out.update([a + b for b in bs])
        if len(out) > cap:
            raise ResourceCapError(f"{what} exceeds {cap} points", cap)
    return out


def _dilations(x: PointSet, k: int, cap):
    """Yield (field offsets, packed kX) for the sumsets 2X, 3X, ..., kX.
    Set sizes only grow, so ResourceCapError is raised at the first power
    whose sumset exceeds the cap."""
    cap = effective_cap(cap)
    shifts = _shifts(x.ambient_dim, k * _top(x))
    gens = _pack(x.points, shifts)
    # doubling is symmetric, so only unordered pairs are formed
    rows = ((a, gens[i:]) for i, a in enumerate(gens))
    for j in range(2, k + 1):
        out = _packed_sum(rows, cap, f"sumset at power {j}")
        yield shifts, out
        rows = zip(out, repeat(gens))


def sumset(x: PointSet, y: PointSet, cap=None) -> PointSet:
    """The Minkowski sum {a + b : a in x, b in y}, duplicate-free; raises
    ResourceCapError if it would exceed `cap` points."""
    if x.ambient_dim != y.ambient_dim:
        raise ValueError(
            f"dimension mismatch: {x.ambient_dim} vs {y.ambient_dim}"
        )
    shifts = _shifts(x.ambient_dim, _top(x) + _top(y))
    xs, ys = sorted((_pack(x.points, shifts), _pack(y.points, shifts)), key=len)
    out = _packed_sum(zip(xs, repeat(ys)), effective_cap(cap), "sumset")
    return PointSet._trusted(x.ambient_dim, _unpack(out, shifts))


def dilate(x: PointSet, k: int, cap=None) -> PointSet:
    """The k-fold sumset kX = X + ... + X, accumulated incrementally;
    raises ResourceCapError if an intermediate sumset would exceed `cap`
    points."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    if k == 1:
        return x
    for shifts, out in _dilations(x, k, cap):
        pass
    return PointSet._trusted(x.ambient_dim, _unpack(out, shifts))


def affine_dim(x: PointSet) -> int:
    """Dimension of the affine hull of x: the exact rank over Q of the
    difference vectors against a fixed base point."""
    if not x.points:
        raise ValueError("affine hull of the empty set is undefined")
    pts = x.sorted_points()
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return integer_rank(diffs)


def freiman_lower_bound(m: int, d: int) -> int:
    """Lower bound (d+1)m - C(d+1, 2) for the doubling of an m-point set
    whose affine hull has dimension d."""
    return (d + 1) * m - comb(d + 1, 2)


def generalized_lower_bound(m: int, ell: int, k: int) -> int:
    """Lower bound C(ell+k-2, k-1)m - (k-1)C(ell+k-2, k) for the k-fold
    sumset; at k=2 this is freiman_lower_bound(m, ell-1)."""
    if ell < 1 or k < 1:
        raise ValueError("ell and k must be >= 1")
    return comb(ell + k - 2, k - 1) * m - (k - 1) * comb(ell + k - 2, k)
