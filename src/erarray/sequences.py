"""Closed-form combinatorial generators and the named generating-function pairs.

The triangle generators are deliberately independent of the Riordan layer:
they are computed from explicit summation formulas and serve as oracles for
the array-level machinery.  The polynomials are built from their integer
coefficients, and so is the thm2 pair, from the coefficients of its
exponentials: its only series algebra is the two quotients over Q[z].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .scalars import PolyZ, Scalar, Z, _polynomial
from .series import Series, _series


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the alternating binomial sum."""
    if not 0 <= k <= n:
        raise ValueError(f"stirling2 needs 0 <= k <= n, got ({n}, {k})")
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    q, r = divmod(total, factorial(k))
    assert r == 0
    return q


def eulerian(n: int, k: int) -> int:
    """Eulerian number: permutations of n elements with k excedances.

    The convention 0^0 = 1 makes row 0 equal to [1] and keeps column 0 zero
    for n >= 1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"eulerian needs 0 <= k <= n, got ({n}, {k})")
    return sum((-1) ** j * (k - j) ** n * comb(n + 1, j) for j in range(k + 1))


def bell_poly(n: int) -> PolyZ:
    """Exponential (Touchard) polynomial: sum of S(n,k) z^k."""
    if n < 0:
        raise ValueError("bell_poly needs n >= 0")
    return PolyZ.from_integers([stirling2(n, k) for k in range(n + 1)])


def eulerian_poly(n: int) -> PolyZ:
    """Eulerian polynomial: sum of A(n,k) z^k."""
    if n < 0:
        raise ValueError("eulerian_poly needs n >= 0")
    return PolyZ.from_integers([eulerian(n, k) for k in range(n + 1)])


@dataclass(frozen=True)
class IntTriangle:
    """Number triangle with integer entries, row n holding n+1 values."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")

    @property
    def order(self) -> int:
        return len(self.rows) - 1


def stirling_triangle(nmax: int) -> IntTriangle:
    return IntTriangle(
        tuple(tuple(stirling2(n, k) for k in range(n + 1)) for n in range(nmax + 1))
    )


def eulerian_triangle(nmax: int) -> IntTriangle:
    return IntTriangle(
        tuple(tuple(eulerian(n, k) for k in range(n + 1)) for n in range(nmax + 1))
    )


_ONE_MINUS_Z = PolyZ.from_integers([1, -1])


def _exp_x(order: int) -> Series:
    return Series.x(order).exp()


def _geometric(order: int) -> Series:
    # 1/(1-x)
    return Series.one(order) / (Series.one(order) - Series.x(order))


def _pair_thm1(order: int) -> tuple[Series, Series]:
    f = _exp_x(order) - 1
    return (f * Z).exp(), f


def _over_one_minus_z(ints: list, den: int) -> Scalar:
    """(ints[0] + ints[1] z + ...) / (den (1 - z)), for ints whose
    polynomial vanishes at z = 1."""
    return _polynomial(PolyZ.from_integers(ints, den).exact_div(_ONE_MINUS_Z))


def _pair_thm2(order: int) -> tuple[Series, Series]:
    # g = e^{zx}(1 - z)/(e^{zx} - z e^x) and f = (e^x - e^{zx})/(e^{zx} - z e^x).
    # The x^k coefficients of e^{zx}, e^{zx} - z e^x and e^x - e^{zx} are
    # z^k/k!, (z^k - z)/k! and (1 - z^k)/k!.  The last two vanish at z = 1;
    # dividing both by 1 - z first leaves a denominator with unit constant
    # term, so only the two quotients are series algebra, over Q[z].
    if order < 1:
        raise ValueError("series of x needs order >= 1")
    ezx, den, num = [], [], []
    for k in range(order + 1):
        fk = factorial(k)
        zk = [0] * k + [1]
        ezx.append(_polynomial(PolyZ.from_integers(zk, fk)))
        zk_minus_z = zk + [0] * (2 - len(zk))
        zk_minus_z[1] -= 1
        den.append(_over_one_minus_z(zk_minus_z, fk))
        one_minus_zk = [-c for c in zk]
        one_minus_zk[0] += 1
        num.append(_over_one_minus_z(one_minus_zk, fk))
    den = _series(den)
    return _series(ezx) / den, _series(num) / den


def _pair_stirling2(order: int) -> tuple[Series, Series]:
    return Series.one(order), _exp_x(order) - 1


def _pair_binomial(order: int) -> tuple[Series, Series]:
    return _exp_x(order), Series.x(order)


def _pair_lah_like(order: int) -> tuple[Series, Series]:
    return _geometric(order), Series.x(order)


def _pair_sets_of_lists(order: int) -> tuple[Series, Series]:
    return Series.one(order), Series.x(order) * _geometric(order)


def _pair_laguerre(order: int) -> tuple[Series, Series]:
    g = _geometric(order)
    return g, Series.x(order) * g


def _pair_charlier(order: int) -> tuple[Series, Series]:
    return _exp_x(order), _geometric(order).log()


NAMED_PAIRS = {
    "thm1": _pair_thm1,
    "thm2": _pair_thm2,
    "stirling2": _pair_stirling2,
    "binomial": _pair_binomial,
    "lah_like": _pair_lah_like,
    "sets_of_lists": _pair_sets_of_lists,
    "laguerre": _pair_laguerre,
    "charlier": _pair_charlier,
    "thm2_z1": _pair_laguerre,
}

NAMED_PAIR_NAMES = tuple(NAMED_PAIRS)


def named_pair(name: str, order: int) -> tuple[Series, Series]:
    """Exact defining (g, f) pair for one of the built-in arrays."""
    try:
        builder = NAMED_PAIRS[name]
    except KeyError:
        raise ValueError(
            f"unknown named pair {name!r}; choose from {', '.join(NAMED_PAIRS)}"
        ) from None
    return builder(order)
