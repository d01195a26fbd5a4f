"""Fiber-cone growth data: analytic spread, generator-count series,
h-vectors, and the Freiman predicate.

For a quasi-equigenerated ideal the generator counts of powers are sizes
of iterated sumsets of the exponent-vector set, and the analytic spread
is one more than the affine-hull dimension of that set.  All series here
are exact integers.
"""

from itertools import accumulate
from operator import mul

from .errors import Record, ResourceCapError, effective_cap
from .ideals import MonomialIdeal, with_witness
from .lattice import _dilations, affine_dim, generalized_lower_bound


class FiberProfile(Record):
    """Freiman verdict for one ideal, with the numbers that force it."""

    ell: int                 # analytic spread
    mu_series: tuple         # (1, mu(I), mu(I^2))
    h_partial: tuple         # (h_0, h_1, h_2)
    freiman: bool
    bound2: int              # ell*mu - C(ell, 2)
    h2: int                  # mu(I^2) - bound2


def analytic_spread(ideal: MonomialIdeal) -> int:
    """Krull dimension of the fiber cone: affine-hull dimension of the
    generator exponents plus one.  Requires quasi-equigeneration."""
    ideal = with_witness(ideal)
    return affine_dim(ideal.generators) + 1


def mu_series(ideal: MonomialIdeal, max_power: int, cap=None) -> list:
    """[1, mu(I), mu(I^2), ..., mu(I^max_power)] by incremental dilation.

    Raises ResourceCapError if an intermediate sumset would exceed `cap`
    points; a partial series is never returned silently.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    gens = with_witness(ideal).generators
    return [1, len(gens)] + [len(out) for _, out in _dilations(gens, max_power, cap)]


def h_vector(mu: list, ell: int) -> list:
    """h-vector entries h_0..h_K recovered from mu(I^k) for k <= K: the
    coefficients h_k = sum_{i<=k} (-1)^i C(ell, i) * mu[k-i] of
    (1 - t)^ell * sum_k mu[k] t^k, so h_2 = mu_2 - ell*mu_1 + C(ell, 2).
    Entries may be negative for non-Cohen-Macaulay fiber cones; only the
    returned prefix is determined by the given series.
    """
    if not mu or mu[0] != 1:
        raise ValueError("a generator-count series must start with mu(I^0) = 1")
    if ell < 1:
        raise ValueError("analytic spread must be >= 1")
    weights = _weights(-ell, len(mu) - 1)
    return [sum(map(mul, weights[k::-1], mu)) for k in range(len(mu))]


def mu_from_h(h: list, ell: int, max_power: int) -> list:
    """Inverse of h_vector: mu(I^k) = sum_i C(ell+k-i-1, k-i) * h_i,
    where h is treated as zero beyond its length."""
    weights = _weights(ell, max_power)
    return [sum(map(mul, weights[k::-1], h)) for k in range(max_power + 1)]


def _weights(x, top):
    """The coefficients C(x+j-1, j) of t^0..t^top in (1 - t)^-x, each from
    the one before.  For x = -ell they are (-1)^j C(ell, j)."""
    return list(accumulate(range(1, top + 1), lambda w, j: w * (x + j - 1) // j, initial=1))


def is_freiman(ideal: MonomialIdeal, cap=None) -> FiberProfile:
    """Decide whether mu(I^2) meets the doubling lower bound with equality.

    The verdict is forced: h2 = mu(I^2) - (ell*mu - C(ell,2)) is always
    >= 0, and the ideal is Freiman exactly when h2 = 0.
    """
    ideal = with_witness(ideal)
    series = mu_series(ideal, 2, cap=cap)
    return fiber_profile(series, affine_dim(ideal.generators) + 1)


def fiber_profile(mu: list, ell: int) -> FiberProfile:
    """The Freiman verdict read off the prefix (1, mu(I), mu(I^2)) of a
    generator-count series at analytic spread ell: its h-prefix is
    (1, mu - ell, h2), and mu(I^2) - h2 is the bound ell*mu - C(ell, 2)."""
    h = h_vector(mu[:3], ell)
    return FiberProfile(
        ell=ell,
        mu_series=tuple(mu[:3]),
        h_partial=tuple(h),
        freiman=h[2] == 0,
        bound2=mu[2] - h[2],
        h2=h[2],
    )


class GrowthRow(Record):
    """Growth facts for one power k >= 2."""

    k: int
    mu_k: int
    lower_bound: int
    equality: bool
    partial_sum: int       # sum_{i=2}^{k} C(ell+k-i-1, k-i) h_i
    nonnegative: bool


class GrowthReport(Record):
    ell: int
    mu: tuple
    h: tuple
    rows: tuple  # GrowthRow per k in 2..K


def check_growth_identities(ideal: MonomialIdeal, max_power: int, cap=None) -> GrowthReport:
    """For each 2 <= k <= max_power, report whether mu(I^k) meets the
    generalized lower bound with equality, and the value and sign of the
    tail partial sum of h-entries that measures the excess.  These take
    K(K+1)/2 binomial terms for K = max_power; over 8 * cap are refused first."""
    if max_power < 2:
        raise ValueError("max_power must be >= 2")
    cap = effective_cap(cap)
    if (terms := max_power * (max_power + 1) // 2) > 8 * cap:
        raise ResourceCapError(f"{terms} binomial terms up to power {max_power}", cap)
    ideal = with_witness(ideal)
    mu = mu_series(ideal, max_power, cap=cap)
    return _growth(mu, affine_dim(ideal.generators) + 1)


def _growth(mu, ell) -> GrowthReport:
    """The growth rows of the series mu = [1, mu(I), ..., mu(I^K)] at
    analytic spread ell.  The partial sums are mu_from_h of the h-vector
    with h_0 and h_1 zeroed."""
    h = h_vector(mu, ell)
    partials = mu_from_h([0, 0, *h[2:]], ell, len(mu) - 1)
    rows = []
    for k in range(2, len(mu)):
        bound = generalized_lower_bound(mu[1], ell, k)
        rows.append(
            GrowthRow(
                k=k,
                mu_k=mu[k],
                lower_bound=bound,
                equality=mu[k] == bound,
                partial_sum=partials[k],
                nonnegative=partials[k] >= 0,
            )
        )
    return GrowthReport(ell=ell, mu=tuple(mu), h=tuple(h), rows=tuple(rows))
