"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms: the
determinant is cofactor expansion, Bell numbers come from the binomial
recurrence, composition is Horner's rule, reversion is Newton iteration, and
the random generators only build inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from hypothesis import settings
from hypothesis import strategies as st

from erarray.scalars import ONE, ZERO, PolyZ, Scalar, Z
from erarray.series import Series


def det_cofactor(rows) -> Scalar:
    """Determinant by first-row cofactor expansion (exponential but exact)."""
    size = len(rows)
    if size == 0:
        return ONE
    if size == 1:
        return rows[0][0]
    total = ZERO
    for j in range(size):
        if rows[0][j].is_zero:
            continue
        minor = [
            [rows[i][k] for k in range(size) if k != j] for i in range(1, size)
        ]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def bell_numbers(count: int) -> list[int]:
    """Bell numbers via B_{n+1} = sum_k C(n, k) B_k."""
    bells = [1]
    for n in range(count - 1):
        bells.append(sum(comb(n, k) * bells[k] for k in range(n + 1)))
    return bells


def compose_horner(outer: Series, inner: Series) -> Series:
    """outer(inner(x)) truncated, by Horner's rule; inner has valuation >= 1."""
    outer._check_order(inner)
    if not inner.coeffs[0].is_zero:
        raise ValueError("composition needs valuation >= 1")
    n = outer.order
    result = Series.constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        result = result * inner + outer.coeffs[k]
    return result


def revert_newton(f: Series) -> Series:
    """Compositional inverse by Newton iteration on f(g) = x.

    Needs f(0) = 0 and f'(0) != 0; the result g satisfies f(g) = x to
    the full order, which is verified before returning.
    """
    n = f.order
    if n < 1 or not f.coeffs[0].is_zero or f.coeffs[1].is_zero:
        raise ValueError("not revertible")
    x = Series.x(n)
    # f' is exact to order n-1; its padded top coefficient never reaches
    # the quotient because the Newton numerator has valuation >= 2.
    dpad = Series(f.derivative().coeffs + (ZERO,))
    g = Series([ZERO, ONE / f.coeffs[1]] + [ZERO] * (n - 1))
    for _ in range(max(4, n.bit_length() + 2)):
        err = compose_horner(f, g) - x
        if err.is_zero:
            break
        g = g - err / compose_horner(dpad, g)
    if not (compose_horner(f, g) - x).is_zero:
        raise ArithmeticError("Newton reversion failed to converge")
    return g


def random_scalar(rng: random.Random, with_z: bool = False) -> Scalar:
    if with_z and rng.random() < 0.4:
        return Scalar(rng.randint(-3, 3)) + Z * rng.randint(-2, 2)
    return Scalar(rng.randint(-3, 3))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_series(rng: random.Random, order: int, with_z: bool = False) -> Series:
    return Series(random_scalar(rng, with_z) for _ in range(order + 1))


def random_pair(rng: random.Random, order: int, with_z: bool = False):
    """A valid monic exponential Riordan pair with small coefficients."""
    g = Series(
        [ONE] + [random_scalar(rng, with_z) for _ in range(order)]
    )
    f = Series(
        [ZERO, ONE] + [random_scalar(rng, with_z) for _ in range(order - 1)]
    )
    return g, f


# Hypothesis strategies for the differential tests against the oracles above.

#: No deadline (the oracles are slow), a fixed example count, and the same
#: examples on every run so that the suite's wall time is stable.
ORACLE_SETTINGS = settings(deadline=None, max_examples=25, derandomize=True)

_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

#: z-polynomials of degree <= 2 with small rational coefficients.
poly_scalars = st.lists(_fractions, min_size=1, max_size=3).map(
    lambda cs: Scalar(PolyZ(cs))
)
_linear = st.lists(_fractions, min_size=1, max_size=2).map(PolyZ)
#: Rational functions of z: a linear polynomial over a nonzero one.
rational_scalars = st.builds(
    Scalar, _linear, _linear.filter(lambda p: not p.is_zero)
)
#: Nonzero rationals for f'(0), often not 1.
rational_leads = _fractions.filter(bool).map(Scalar)


@st.composite
def series_of(draw, scalars, order: int, lead=None):
    """A series of the given order with coefficients drawn from scalars.

    With a ``lead`` strategy the series is revertible: its constant term is
    0 and f'(0) is a nonzero draw from ``lead``.
    """
    coeffs = draw(st.lists(scalars, min_size=order + 1, max_size=order + 1))
    if lead is not None:
        coeffs[0] = ZERO
        coeffs[1] = draw(lead.filter(lambda c: not c.is_zero))
    return Series(coeffs)
