"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms: the
determinants are cofactor expansion and fraction-field elimination, Bell
numbers come from the binomial recurrence, composition is Horner's rule,
reversion is Newton iteration, an array acts on a sequence through e.g.f.s,
production matrices are read off the bivariate generating function, moments
come from inverting the monic coefficient array, and the random generators
only build inputs.  Each library call computes one route; the tests compare
it with these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from hypothesis import settings
from hypothesis import strategies as st

from erarray.orthopoly import coeff_array_from_jacobi, invert_lower_triangular
from erarray.riordan import ProductionMatrix, production_cr
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


def det_fraction_field(rows) -> Scalar:
    """Determinant by Gaussian elimination over Q(z), with partial pivoting."""
    m = [[Scalar._coerce(e) for e in row] for row in rows]
    size = len(m)
    for row in m:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
    if size == 0:
        return ONE
    det = ONE
    for k in range(size):
        if m[k][k].is_zero:
            for i in range(k + 1, size):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    det = -det
                    break
            else:
                return ZERO
        pivot = m[k][k]
        det = det * pivot
        inv = ONE / pivot
        for i in range(k + 1, size):
            factor = m[i][k] * inv
            if factor.is_zero:
                continue
            for j in range(k + 1, size):
                m[i][j] = m[i][j] - factor * m[k][j]
    return det


def matrix_product(a_rows, b_rows):
    """Plain matrix product for square Scalar matrices."""
    size = len(a_rows)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = ZERO
            for k in range(size):
                if not a_rows[i][k].is_zero and not b_rows[k][j].is_zero:
                    acc = acc + a_rows[i][k] * b_rows[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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


def apply_egf(a, u) -> tuple[Scalar, ...]:
    """Image of u under [g, f]: its e.g.f. is g(x) U(f(x)), U the e.g.f. of u."""
    n = a.order
    egf_u = Series(Scalar._coerce(t) / factorial(k) for k, t in enumerate(u))
    image = a.g * compose_horner(egf_u, a.f)
    return tuple(image.coeffs[r] * factorial(r) for r in range(n + 1))


def production_bivariate_gf(a, orders: int | None = None) -> ProductionMatrix:
    """Production matrix read off the bivariate generating function.

    phi(t, w) = e^{tw} (c(w) + t r(w)) expands as sum p_{n,k} t^k w^n / n!;
    the t^k coefficient is w^k c(w)/k! + w^{k-1} r(w)/(k-1)!, computed here
    with series products.
    """
    n = a.order
    if orders is None:
        orders = n
    if orders > n:
        raise ValueError(f"requested orders {orders} beyond array order {n}")
    c, r = production_cr(a)
    m = n - 1
    rows = [[ZERO] * (orders + 1) for _ in range(orders + 1)]

    def monomial_over_factorial(k: int) -> Series:
        coeffs = [ZERO] * (m + 1)
        if k <= m:
            coeffs[k] = Scalar(1) / factorial(k)
        return Series(coeffs)

    for k in range(min(orders, m + 1) + 1):
        phi_k = monomial_over_factorial(k) * c
        if k >= 1:
            phi_k = phi_k + monomial_over_factorial(k - 1) * r
        for i in range(min(orders, m) + 1):
            if k <= orders:
                rows[i][k] = phi_k.coeffs[i] * factorial(i)
    return ProductionMatrix(entries=tuple(tuple(row) for row in rows))


def moments_by_inverse(params, count: int) -> tuple[Scalar, ...]:
    """Moments a0 (A^-1)[n][0], A the monic coefficient array of the data."""
    inv = invert_lower_triangular(coeff_array_from_jacobi(params, count))
    return tuple(params.a0 * inv[n][0] for n in range(count + 1))


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
