"""Closed-form combinatorial generators and the named generating-function pairs.

The triangle generators are deliberately independent of the Riordan layer:
they are computed from explicit summation formulas and serve as oracles for
the array-level machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .scalars import PolyZ, Scalar, Z
from .series import Series


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
    return PolyZ([stirling2(n, k) for k in range(n + 1)])


def eulerian_poly(n: int) -> PolyZ:
    """Eulerian polynomial: sum of A(n,k) z^k."""
    if n < 0:
        raise ValueError("eulerian_poly needs n >= 0")
    return PolyZ([eulerian(n, k) for k in range(n + 1)])


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


_ONE_MINUS_Z = PolyZ([1, -1])


def _exp_x(order: int) -> Series:
    return Series.x(order).exp()


def _geometric(order: int) -> Series:
    # 1/(1-x)
    return Series.one(order) / (Series.one(order) - Series.x(order))


def _pair_thm1(order: int) -> tuple[Series, Series]:
    f = _exp_x(order) - 1
    return (f * Z).exp(), f


def _over_one_minus_z(s: Series) -> Series:
    """s / (1 - z), for s whose every coefficient is a multiple of 1 - z."""
    return Series(Scalar(c.num.exact_div(_ONE_MINUS_Z)) for c in s.coeffs)


def _pair_thm2(order: int) -> tuple[Series, Series]:
    # g = e^{zx}(1 - z)/(e^{zx} - z e^x) and f = (e^x - e^{zx})/(e^{zx} - z e^x).
    # Every coefficient of e^{zx} - z e^x and of e^x - e^{zx} vanishes at
    # z = 1; dividing both by 1 - z first leaves a denominator with unit
    # constant term, so both quotients run over Q[z].
    ex = _exp_x(order)
    ezx = (Series.x(order) * Z).exp()
    den = _over_one_minus_z(ezx - ex * Z)
    return ezx / den, _over_one_minus_z(ex - ezx) / den


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
