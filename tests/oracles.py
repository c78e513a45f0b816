"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms: the
polynomial kernel is a tuple of Fractions with schoolbook loops, the
determinants are cofactor expansion and fraction-field elimination, the
Hankel transform is one fraction-free elimination of the largest Hankel
matrix, Bell numbers come from the binomial recurrence, composition is
Horner's rule and also reads a table of the powers of the inner series,
an array is built from full series products g f^k, the group law
composes through a table of the powers of f, the thm2 pair is divided as
rational functions, reversion is Newton iteration and also Lagrange
inversion over a table of powers, an array acts on a sequence through
e.g.f.s, an array is specialised at a value of z entry by entry, the
production series and the inverse array compose with the reversion of f,
both by the tables of powers, production
matrices are read off the bivariate generating function, triangular
matrices are inverted column by column, moments come from inverting the
monic coefficient array of the three-term recurrence and from expanding
the J-fraction bottom-up, level by level, both tableaux (the
Stieltjes one for moments, the Chebyshev one for the Hankel transform and
Jacobi recovery) chain one ring operation per term, both are also kept
with one ``dot`` per entry over Q(z) (the routes that the packed rows and
the rows over one denominator replaced), the Chebyshev walk is also kept
on unpacked integer rows (the route its packed rows replaced), the
binomial transform
sums term by term, Jacobi data is recovered from moments by the Stieltjes
procedure, closed forms are parsed by a peek/advance parser and
evaluated with every leaf a Series (and z-only forms by their own walk),
a b-file reads each entry back from its string, and the random generators
only build inputs.  Scalar sums and products canonicalise the
full cross product by the Euclid gcd, Scalar division is also kept
as the gcd route it took before it tried an exact quotient, the Scalar
constructor as the gcd and monic scaling it did before it became that
quotient, exact
polynomial division as the quotient of pseudo-division (``divmod``) that
it was before it took the exact long division, the integer-polynomial
product as a classical double loop written apart from the library's, a
series' text as it was written before it
shared the polynomial term formatter, a polynomial's text with one
reduced fraction per coefficient, and a JSON cell as it was read before
the reader checked it as a whole, one regex match per term.  Each library call
computes one route; the tests compare it with these.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from hypothesis import settings
from hypothesis import strategies as st

from erarray.expr import (BinOp, Call, EvalError, Neg, Num, ParseError, Pow, VarX, VarZ,
                          parse_scalar)
from erarray.hankel import hankel_matrix
from erarray.orthopoly import JacobiParams, JacobiRecovery, MomentSequence
from erarray.riordan import ERArray, ProductionMatrix, er_build
from erarray.scalars import (ONE, POLY_ONE, POLY_ZERO, ZERO, PolyZ, Scalar, Z, _as_scalar,
                             _SCHOOLBOOK_MAX, _canonical, _clear_contents, _clear_denominators,
                             _cofactors, _inverse, _multiply, _normal, _polynomial, _product, dot,
                             solve_lower)
from erarray.series import Series, _series


# The polynomial kernel as a tuple of Fractions, the differential oracle for
# the integer-packed ``PolyZ``.  It shares no code with the library.
def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _format_terms(pairs) -> str:
    """Render (coefficient, degree) pairs, descending degree, canonical form."""
    chunks = []
    for coeff, deg in pairs:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if deg == 0:
            body = str(mag)
        else:
            var = "z" if deg == 1 else f"z^{deg}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


class FractionPoly:
    """Dense univariate polynomial in z over Q, ascending coefficients.

    Zero is the empty tuple; otherwise the last coefficient is nonzero.
    Every coefficient is a ``Fraction``, and multiplication and division
    are schoolbook loops: the reference for the library's ``PolyZ``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, value) -> FractionPoly:
        return cls((_as_fraction(value),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, FractionPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self) -> FractionPoly:
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return FractionPoly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return FractionPoly(out)

    __rmul__ = __mul__

    def scale(self, factor) -> FractionPoly:
        f = _as_fraction(factor)
        return FractionPoly(tuple(c * f for c in self.coeffs))

    def __pow__(self, exponent: int) -> FractionPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        result = FractionPoly((1,))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __divmod__(self, other: FractionPoly):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return FractionPoly(), self
        quo = [Fraction(0)] * (dn - dd + 1)
        inv_lead = 1 / other.leading
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd] * inv_lead
            if c:
                quo[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return FractionPoly(quo), FractionPoly(rem)

    def __mod__(self, other: FractionPoly) -> FractionPoly:
        return divmod(self, other)[1]

    def exact_div(self, other: FractionPoly) -> FractionPoly:
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return quo

    def monic(self) -> FractionPoly:
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    @staticmethod
    def gcd(a: FractionPoly, b: FractionPoly) -> FractionPoly:
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    def evaluate(self, v) -> Fraction:
        v = _as_fraction(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("FractionPoly", self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.is_zero:
            return "0"
        pairs = [(c, k) for k, c in sorted(enumerate(self.coeffs), reverse=True) if c]
        return _format_terms(pairs)

    def __repr__(self):
        return f"FractionPoly({self})"


def scalar_by_product(op: str, x: Scalar, y: Scalar) -> Scalar:
    """x op y, for op one of + - * /, as the full sum or product over the
    product of the denominators, canonicalised once by the Euclid gcd of
    ``FractionPoly`` and two exact divisions: the differential oracle for
    Henrici's rules in ``Scalar``."""
    xn, xd, yn, yd = (FractionPoly(p.coeffs) for p in (x.num, x.den, y.num, y.den))
    if op == "+":
        num, den = xn * yd + yn * xd, xd * yd
    elif op == "-":
        num, den = xn * yd - yn * xd, xd * yd
    elif op == "*":
        num, den = xn * yn, xd * yd
    elif op == "/":
        if yn.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        num, den = xn * yd, xd * yn
    else:
        raise ValueError(f"unknown operation {op!r}")
    if num.is_zero:
        return ZERO
    g = FractionPoly.gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    num, den = num.scale(1 / den.leading), den.monic()
    canonical = object.__new__(Scalar)
    canonical.num = PolyZ(num.coeffs)
    canonical.den = POLY_ONE if den.degree == 0 else PolyZ(den.coeffs)
    return canonical


def divide_by_gcd(x: Scalar, y: Scalar) -> Scalar:
    """x / y by the route Scalar division took before it tried an exact
    quotient: a rational constant y scales x's numerator, and otherwise
    x's numerator is cross-cancelled with y's and y's denominator with
    x's, each by a polynomial gcd (``scalars._product`` of x and 1/y)."""
    if y.is_zero:
        raise ZeroDivisionError("scalar division by zero")
    o = y.num
    if y.is_polynomial and len(o._prim) == 1:
        return _canonical(x.num._times(o._den, o._num), x.den)
    if x.is_zero:
        return ZERO
    return _canonical(*_product(x.num, x.den, *_inverse(y.num, y.den)))


def scalar_by_cofactors(num, den) -> Scalar:
    """Scalar(num, den) by the route its constructor took before it was the
    quotient num / den: num and den divided by their gcd
    (``scalars._cofactors``) when den is not a constant, then num scaled by
    1/lc(den) and den made monic, a constant den replaced by ``POLY_ONE``."""
    num, den = Scalar._as_poly(num), Scalar._as_poly(den)
    if den.is_zero:
        raise ZeroDivisionError("scalar division by zero")
    if num.is_zero:
        return ZERO
    if den.degree >= 1:
        num, den, _ = _cofactors(num, den)
    if den.leading != 1:
        num = num.scale(1 / den.leading)
        den = den.monic()
    return _canonical(num, POLY_ONE if den.degree == 0 else den)


def exact_div_by_divmod(a: PolyZ, b: PolyZ) -> PolyZ:
    """a/b by the route ``PolyZ.exact_div`` took before it ran on
    ``scalars._exact_quotient``: the quotient of ``divmod``, which must
    leave a zero remainder."""
    quo, rem = divmod(a, b)
    if not rem.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return quo


def schoolbook(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero integer polynomials by the classical double
    loop, one row per coefficient of ``a``, the first row written out: a
    copy, written apart, of the loop that ``scalars._multiply`` runs on
    short operands."""
    c = a[0]
    out = [c * d for d in b] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        c = a[i]
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return tuple(out)


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


def _clear_column(column) -> tuple[PolyZ, list[PolyZ]]:
    """A factor f that makes every Scalar of ``column`` a polynomial, and
    the polynomials e * f: f is the product of the distinct denominators,
    a multiple of their lcm."""
    f = POLY_ONE
    for den in {e.den for e in column}:
        f = f * den
    cleared = [e * Scalar(f) for e in column]
    assert all(e.is_polynomial for e in cleared)
    return f, [e.num for e in cleared]


def hankel_transform_by_elimination(seq, nmax: int) -> list[Scalar]:
    """h_0..h_nmax off the pivots of one fraction-free elimination.

    Each column of the largest Hankel matrix is scaled to polynomial form
    by the product of its distinct denominators; by Sylvester's identity
    the k-th pivot of one-step Bareiss elimination without row swaps is the
    leading minor h_k times the first k+1 column factors.  After a zero
    pivot the larger sizes are per-size ``det_fraction_field`` determinants.
    """
    terms = tuple(_as_scalar(t) for t in seq)
    m = hankel_matrix(terms, nmax)
    factors, columns = zip(*(_clear_column([row[j] for row in m]) for j in range(nmax + 1)))
    rows = [list(row) for row in zip(*columns)]
    out = []
    cleared = prev = POLY_ONE
    for k in range(nmax + 1):
        cleared = cleared * factors[k]
        pivot = rows[k][k]
        out.append(Scalar(pivot, cleared))
        if pivot.is_zero:
            break
        for i in range(k + 1, nmax + 1):
            for j in range(k + 1, nmax + 1):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]).exact_div(prev)
        prev = pivot
    return out + [det_fraction_field(hankel_matrix(terms, n))
                  for n in range(len(out), nmax + 1)]


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


def apply_by_rows(a, u) -> tuple[Scalar, ...]:
    """Image of u under the array as the matrix-vector product of its
    entries, one Scalar sum per row."""
    vec = [Scalar._coerce(t) for t in u]
    return tuple(sum((row[k] * vec[k] for k in range(m + 1)), ZERO)
                 for m, row in enumerate(a.entries))


def over_scalars(s: Series) -> Series:
    """The same coefficients without the integer form: every operation on
    the result runs on Scalars, the route that z-free series left."""
    return _series(s.coeffs)


def series_str_by_parts(s: Series) -> str:
    """``str`` of a series as ``Series.__str__`` wrote it before it called
    the term formatter of ``PolyZ``: one part per nonzero coefficient, then
    the parts joined, a leading "-" of a later part turned into " - "."""
    parts = []
    for k, c in enumerate(s.coeffs):
        if c.is_zero:
            continue
        cs = str(c)
        if k == 0:
            parts.append(cs)
            continue
        var = "x" if k == 1 else f"x^{k}"
        if cs == "1":
            parts.append(var)
        elif cs == "-1":
            parts.append(f"-{var}")
        else:
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{var}")
    if not parts:
        body = "0"
    else:
        body = parts[0]
        for part in parts[1:]:
            body += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return f"{body} + O(x^{s.order + 1})"


def er_build_over_scalars(g: Series, f: Series) -> ERArray:
    """[g, f] with the integer form removed from g and f, so that the array,
    its group law, solve and production data run on Scalars."""
    return er_build(over_scalars(g), over_scalars(f))


def eval_z_by_entries(a: ERArray, v) -> tuple[tuple[Scalar, ...], ...]:
    """The entries of ``a`` over Q(z), each specialised at z = v."""
    return tuple(tuple(Scalar(e.eval_z(v)) for e in row) for row in a.entries)


def _degree(a: Series) -> int:
    """Index of the last nonzero coefficient (0 for the zero series)."""
    for k in range(a.order, 0, -1):
        if not a.coeffs[k].is_zero:
            return k
    return 0


def _powers(inner: Series, count: int) -> list[Series]:
    """inner^0 .. inner^count at inner's order: count - 1 series products."""
    table = [Series.one(inner.order)]
    if count >= 1:
        table.append(inner)
    for _ in range(count - 1):
        table.append(table[-1] * inner)
    return table


def _compose_powers(outer: Series, powers: list[Series]) -> Series:
    """sum_k a_k inner^k truncated, from a table of the powers of inner.

    inner has zero constant term, so inner^k starts at x^k and row m needs
    only k <= m; the table may stop at the last nonzero a_k.
    """
    a = outer.coeffs
    top = len(powers) - 1
    ka = [k for k in range(top + 1) if not a[k].is_zero]
    return _series(dot([(a[k], powers[k].coeffs[m]) for k in ka if k <= m])
                   for m in range(outer.order + 1))


def compose_by_powers(outer: Series, inner: Series) -> Series:
    """outer(inner(x)) truncated, read off a table of the powers of inner
    up to outer's last nonzero index, on Scalars whatever the input."""
    outer._check_order(inner)
    if not inner.coeffs[0].is_zero:
        raise ValueError("composition needs valuation >= 1")
    return _compose_powers(outer, _powers(inner, _degree(outer)))


def revert_by_powers(f: Series) -> Series:
    """Compositional inverse by Lagrange inversion over a table of powers.

    With the powers f^k tabled (order - 2 series products), x = sum_k b_k f^k
    is one triangular solve, row m reading sum_{k<=m} b_k [x^m] f^k = [m = 1],
    with the diagonal [x^m] f^m = f_1^m.
    """
    n = f.order
    fc = f.coeffs
    if n < 1 or not fc[0].is_zero or fc[1].is_zero:
        raise ValueError("not revertible")
    fpow = _powers(f, n - 1)
    # Row i is m = i + 1, unknown i is b_{i+1}.
    rows = [[fpow[k].coeffs[m] for k in range(1, m)] + [fc[1] ** m]
            for m in range(1, n + 1)]
    unit = [(ONE,)] + [(ZERO,)] * (n - 1)
    return _series([ZERO] + [x[0] for x in solve_lower(rows, unit)])


def production_cr_by_reversion(a: ERArray) -> tuple[Series, Series]:
    """c = (g'/g) o fbar and r = f' o fbar, with fbar the reversion of f."""
    n = a.order
    fbar = revert_by_powers(a.f).truncate(n - 1)
    return compose_by_powers(a.g.derivative() / a.g.truncate(n - 1), fbar), \
        compose_by_powers(a.f.derivative(), fbar)


def er_build_by_series_products(g: Series, f: Series) -> ERArray:
    """[g, f] from n full series products g f^k over Q(z), entry (r, k)
    being (r!/k!) [x^r] g f^k, whatever the pair's coefficients."""
    n = g.order
    entries = []
    col = g
    cols = [g]
    for _ in range(n):
        col = col * f
        cols.append(col)
    for r in range(n + 1):
        rf = factorial(r)
        row = [cols[k].coeffs[r] * (rf // factorial(k)) if k <= r else ZERO
               for k in range(n + 1)]
        entries.append(tuple(row))
    return ERArray(g=g, f=f, entries=tuple(entries))


def er_inverse_by_reversion(a: ERArray) -> ERArray:
    """The group inverse [1/(g o fbar), fbar], with fbar the reversion of f."""
    fbar = revert_by_powers(a.f)
    return er_build(Series.one(a.order) / compose_by_powers(a.g, fbar), fbar)


def er_mul_by_powers(a: ERArray, b: ERArray) -> ERArray:
    """Group law: [g, f] * [h, l] = [g (h o f), l o f]."""
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    powers = _powers(a.f, max(_degree(b.g), _degree(b.f)))
    return er_build(a.g * _compose_powers(b.g, powers), _compose_powers(b.f, powers))


def pair_thm2_by_quotient(order: int) -> tuple[Series, Series]:
    """The thm2 pair as the paper writes it, divided as rational functions:
    g = e^{zx}(1 - z)/(e^{zx} - z e^x), f = (e^x - e^{zx})/(e^{zx} - z e^x)."""
    ex = Series.x(order).exp()
    ezx = (Series.x(order) * Z).exp()
    den = ezx - ex * Z
    g = (ezx * (ONE - Z)) / den
    f = (ex - ezx) / den
    return g, f


def production_bivariate_gf(a, orders: int | None = None) -> ProductionMatrix:
    """Production matrix read off the bivariate generating function.

    phi(t, w) = e^{tw} (c(w) + t r(w)) expands as sum p_{n,k} t^k w^n / n!;
    the t^k coefficient is w^k c(w)/k! + w^{k-1} r(w)/(k-1)!, computed here
    with series products from c and r by reversion.
    """
    n = a.order
    if orders is None:
        orders = n
    if orders > n:
        raise ValueError(f"requested orders {orders} beyond array order {n}")
    c, r = production_cr_by_reversion(a)
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


def coeff_array_from_jacobi(params: JacobiParams, order: int):
    """Rows 0..order of coefficients of the monic polynomials p_n(x).

    p_{n+1}(x) = (x - alpha_n) p_n(x) - beta_n p_{n-1}(x), p_0 = 1.
    """
    if order > params.depth:
        raise ValueError(
            f"insufficient parameters: order {order} needs {order} alphas, "
            f"have {params.depth}"
        )
    size = order + 1
    rows = [[ZERO] * size for _ in range(size)]
    rows[0][0] = ONE
    prev: list[Scalar] = []
    cur = [ONE]
    for n in range(order):
        shifted = [ZERO] + cur
        nxt = [shifted[k] - params.alpha[n] * (cur[k] if k < len(cur) else ZERO)
               for k in range(n + 2)]
        if n >= 1:
            for k in range(len(prev)):
                nxt[k] = nxt[k] - params.beta[n - 1] * prev[k]
        prev, cur = cur, nxt
        for k in range(n + 2):
            rows[n + 1][k] = cur[k]
    return tuple(tuple(r) for r in rows)


def invert_lower_by_columns(rows):
    """Exact inverse of a lower-triangular Scalar matrix, column by column,
    one Scalar operation at a time: the reference for ``solve_lower``."""
    size = len(rows)
    inv = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, size):
            if i == j:
                acc = ONE
            else:
                acc = ZERO
                for k in range(j, i):
                    if not rows[i][k].is_zero and not inv[k][j].is_zero:
                        acc = acc - rows[i][k] * inv[k][j]
            if rows[i][i].is_zero:
                raise ZeroDivisionError(f"singular diagonal entry at ({i}, {i})")
            inv[i][j] = acc / rows[i][i]
    return tuple(tuple(r) for r in inv)


def moments_by_inverse(params, count: int) -> tuple[Scalar, ...]:
    """Moments a0 (A^-1)[n][0], A the monic coefficient array of the data."""
    inv = invert_lower_by_columns(coeff_array_from_jacobi(params, count))
    return tuple(params.a0 * inv[n][0] for n in range(count + 1))


def jfraction_by_levels(params: JacobiParams, order: int) -> Series:
    """The J-fraction's series, expanded bottom-up as a continued fraction.

    The innermost level is 1 - alpha_{M-1} x, and level j wraps
    1 - alpha_j x - beta_{j+1} x^2 / (next level).
    """
    depth = params.depth
    if depth == 0:
        return Series.constant(params.a0, order)
    x = Series.x(order) if order >= 1 else Series.zero(0)
    level = Series.one(order) - x * params.alpha[depth - 1]
    for j in range(depth - 2, -1, -1):
        level = Series.one(order) - x * params.alpha[j] - (
            (x * x) * params.beta[j] / level
        )
    return Series.constant(params.a0, order) / level


def moments_by_chained_tableau(params: JacobiParams, count: int) -> MomentSequence:
    """Moments a_0..a_count off the Stieltjes tableau, each entry a chain of
    PolyZ products and sums: the reference for ``moments_from_jacobi``.

    Row m holds d^m A[m] in Q[z], d the lcm of the denominators of the
    alphas and betas used, and A[m][k] = A[m-1][k-1] + alpha_k A[m-1][k]
    + beta_{k+1} A[m-1][k+1].
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > params.depth:
        raise ValueError(
            f"insufficient parameters: count {count} > depth {params.depth}"
        )
    half = count // 2
    alpha, beta = params.alpha[:half + 1], params.beta[:half]
    d, nums = _clear_denominators(alpha + beta)
    alpha, beta = nums[:len(alpha)], nums[len(alpha):]
    a0 = params.a0
    row = [POLY_ONE]
    terms = [a0]
    dm = a0.den
    for m in range(1, count + 1):
        up = row if d is POLY_ONE else [d * p for p in row]
        nxt = []
        for k in range(min(m, count - m) + 1):
            acc = up[k - 1] if k else POLY_ZERO
            if k < len(row):
                acc = acc + alpha[k] * row[k]
            if k + 1 < len(row):
                acc = acc + beta[k] * row[k + 1]
            nxt.append(acc)
        row = nxt
        if d is not POLY_ONE:
            dm = dm * d
        terms.append(Scalar(a0.num * row[0], dm))
    return MomentSequence(tuple(terms))


def moments_by_dot_tableau(params: JacobiParams, count: int) -> MomentSequence:
    """Moments a_0..a_count off the Stieltjes tableau, each entry one
    ``scalars.dot`` over Q[z]: the route ``moments_from_jacobi`` took before
    its rows were packed into ints.

    Row m holds d^m A[m] as polynomial Scalars, d the lcm of the
    denominators of the alphas and betas used, and each entry
    d A[m-1][k-1] + alpha_k A[m-1][k] + beta_{k+1} A[m-1][k+1] is one
    ``dot``, normalised once.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > params.depth:
        raise ValueError(
            f"insufficient parameters: count {count} > depth {params.depth}"
        )
    half = count // 2
    alpha, beta = params.alpha[:half + 1], params.beta[:half]
    d, nums = _clear_denominators(alpha + beta)
    nums = [_polynomial(p) for p in nums]
    alpha, beta = nums[:len(alpha)], nums[len(alpha):]
    shift = _polynomial(d)
    a0 = params.a0
    row = [ONE]
    terms = [a0]
    dm = a0.den
    for m in range(1, count + 1):
        nxt = []
        for k in range(min(m, count - m) + 1):
            pairs = [(shift, row[k - 1])] if k else []
            if k < len(row):
                pairs.append((alpha[k], row[k]))
            if k + 1 < len(row):
                pairs.append((beta[k], row[k + 1]))
            nxt.append(dot(pairs))
        row = nxt
        if d is not POLY_ONE:
            dm = dm * d
        terms.append(Scalar(a0.num * row[0].num, dm))
    return MomentSequence(tuple(terms))


def walk_by_chained_tableau(terms):
    """The (s_k, alpha_k, beta_k) triples of the Chebyshev tableau of the
    moments ``terms``, each entry a chain of Scalar operations: the
    reference for ``orthopoly._walk``.

    sigma_k(l) = sigma_{k-1}(l+1) - alpha_{k-1} sigma_{k-1}(l)
    - beta_{k-1} sigma_{k-2}(l), s_k = sigma_k(k), alpha_k = sigma_k(k+1)/s_k
    - sigma_{k-1}(k)/s_{k-1} and beta_k = s_k/s_{k-1}; the last triple has
    alpha_k and beta_k None.
    """
    top = len(terms) - 1
    # Rows k-1 and k of the tableau, indexed by l; only l >= k is used.
    prev: list[Scalar] = []
    row = list(terms)
    s_prev = ratio_prev = b = None
    for k in range(top // 2 + 1):
        s = row[k]
        if s.is_zero or 2 * k + 1 > top:
            yield s, None, None
            return
        ratio = row[k + 1] / s
        a = ratio - ratio_prev if k else ratio
        if k:
            b = s / s_prev
        yield s, a, b
        nxt = [ZERO] * (top - k)
        for l in range(k + 1, top - k):
            acc = row[l + 1] - a * row[l]
            if k:
                acc = acc - b * prev[l]
            nxt[l] = acc
        prev, row = row, nxt
        s_prev, ratio_prev = s, ratio


def walk_by_dot_tableau(terms):
    """The (s_k, alpha_k, beta_k) triples of the Chebyshev tableau of the
    moments ``terms``, each entry one ``scalars.dot`` of three Scalar pairs
    over Q(z), with -alpha_k and -beta_k formed once per row: the route
    ``orthopoly._walk`` took before its rows were held as polynomial
    numerators over one denominator.
    """
    top = len(terms) - 1
    # Rows k-1 and k of the tableau, indexed by l; only l >= k is used.
    prev = [ZERO] * len(terms)
    row = list(terms)
    s_prev = ratio_prev = b = None
    for k in range(top // 2 + 1):
        s = row[k]
        if s.is_zero or 2 * k + 1 > top:
            yield s, None, None
            return
        ratio = row[k + 1] / s
        a = ratio - ratio_prev if k else ratio
        if k:
            b = s / s_prev
        yield s, a, b
        minus_a, minus_b = -a, -b if k else ZERO
        nxt = [ZERO] * (top - k)
        for l in range(k + 1, top - k):
            nxt[l] = dot(((row[l + 1], ONE), (row[l], minus_a), (prev[l], minus_b)))
        prev, row = row, nxt
        s_prev, ratio_prev = s, ratio


def _fused_entry(pairs) -> list:
    """sum a*b over pairs of integer polynomials, as ascending ints (an
    empty operand is zero, and the list may end in zeros): the fused
    kernel that each entry of the integer rows was, the classical double
    loop while the shorter operand has at most ``_SCHOOLBOOK_MAX`` terms
    and ``scalars._multiply`` above, kept as it ran so that
    microbench/walk_route.py times the integer rows at their own speed."""
    out = []
    for a, b in pairs:
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        size = len(a) + len(b) - 1
        if len(out) < size:
            out += [0] * (size - len(out))
        if len(a) > _SCHOOLBOOK_MAX:
            for i, c in enumerate(_multiply(a, b)):
                out[i] += c
            continue
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
                    out[j] += c * d
    return out


def walk_by_integer_rows(terms):
    """The (s_k, alpha_k, beta_k) triples of the Chebyshev tableau of the
    moments ``terms``, with row k held as integer coefficient vectors
    V_k(l) over one integer e_k and one polynomial D_k and each entry one
    ``_fused_entry`` of three products: the route ``orthopoly._walk`` took
    before each V_k(l) was packed into one int.  The multipliers, the
    row denominators and the trim of e_k by the gcd of the row are those of
    ``_walk`` (see its docstring)."""
    top = len(terms) - 1
    den, nums = _clear_denominators(terms)
    e, row = _clear_contents(nums)
    # Rows k-1 and k, indexed by l; only l >= k is used.
    prev, e_prev = [()] * len(terms), 1
    den_prev = POLY_ONE
    s_prev = ratio_prev = b = None
    for k in range(top // 2 + 1):
        n = _normal(list(row[k]), 1, e)
        s = Scalar(n, den)
        if s.is_zero or 2 * k + 1 > top:
            yield s, None, None
            return
        ratio = _polynomial(_normal(list(row[k + 1]), 1, e)) / _polynomial(n)
        a = ratio - ratio_prev if k else ratio
        if k:
            b = s / s_prev
        yield s, a, b
        x = a.den * den
        y = b.den * den_prev if k else POLY_ONE
        if x is POLY_ONE or y is POLY_ONE:
            xg, yg = x, y
        else:
            xg, yg, _ = _cofactors(x, y)
        common = lcm(e, e_prev)
        u = common // e
        f, (m_next, m_row, m_prev) = _clear_contents((
            (a.den * yg)._times(u, 1), (-a.num * yg)._times(u, 1),
            (-b.num * xg)._times(common // e_prev, 1) if k else POLY_ZERO))
        den_prev, den = den, x * yg
        nxt = [()] * (k + 1) + [
            _fused_entry(((m_next, row[l + 1]), (m_row, row[l]), (m_prev, prev[l])))
            for l in range(k + 1, top - k)]
        e_prev, e = e, f * common
        if e != 1:
            g = gcd(e, *(c for v in nxt for c in v))
            if g != 1:
                e //= g
                nxt = [[c // g for c in v] for v in nxt]
        prev, row = row, nxt
        s_prev, ratio_prev = s, ratio


def binomial_transform_by_sum(seq) -> tuple[Scalar, ...]:
    """b_n = sum_k C(n, k) a_k, one Scalar sum per term: the reference for
    ``hankel.binomial_transform``."""
    terms = [_as_scalar(t) for t in seq]
    out = []
    for n in range(len(terms)):
        acc = ZERO
        for k in range(n + 1):
            acc = acc + terms[k] * comb(n, k)
        out.append(acc)
    return tuple(out)


def jacobi_by_stieltjes(moments) -> JacobiRecovery:
    """Recover (alpha, beta) from raw moments by the exact Stieltjes procedure.

    Builds the monic orthogonal polynomials against the moment functional
    L(x^k) = a_k, with alpha_n = L(x p_n^2)/L(p_n^2) and
    beta_n = L(p_n^2)/L(p_{n-1}^2); stops when moments run out or a beta
    vanishes.
    """
    terms = moments.terms if isinstance(moments, MomentSequence) else tuple(
        _as_scalar(t) for t in moments
    )
    if terms[0].is_zero:
        raise ValueError("jacobi recovery needs a_0 != 0")
    top = len(terms) - 1

    def functional(u: list[Scalar], v: list[Scalar]) -> Scalar:
        acc = ZERO
        for i, ui in enumerate(u):
            if ui.is_zero:
                continue
            for j, vj in enumerate(v):
                if not vj.is_zero:
                    acc = acc + ui * vj * terms[i + j]
        return acc

    def x_shift(u: list[Scalar]) -> list[Scalar]:
        return [ZERO] + u

    alpha: list[Scalar] = []
    beta: list[Scalar] = []
    finite_support = False
    prev: list[Scalar] = []
    cur: list[Scalar] = [ONE]
    norms: list[Scalar] = []
    n = 0
    while True:
        if 2 * n > top:
            break
        s_n = functional(cur, cur)
        if n >= 1 and s_n.is_zero:
            finite_support = True
            break
        if 2 * n + 1 > top:
            break
        a_n = functional(x_shift(cur), cur) / s_n
        if n >= 1:
            beta.append(s_n / norms[-1])
        alpha.append(a_n)
        norms.append(s_n)
        nxt = [c for c in x_shift(cur)]
        for k, c in enumerate(cur):
            nxt[k] = nxt[k] - a_n * c
        if n >= 1:
            for k, c in enumerate(prev):
                nxt[k] = nxt[k] - beta[-1] * c
        prev, cur = cur, nxt
        n += 1
    params = JacobiParams(tuple(alpha), tuple(beta), a0=terms[0])
    return JacobiRecovery(params=params, depth=len(alpha), finite_support=finite_support)


# Closed forms read and evaluated as before constant folding: a tokenizer
# object and a parser that calls peek/advance for every token, and an
# evaluator that makes every leaf a Series (a constant series for a number
# or z) and cuts both operands of every operation to their common order.
# The b-file writer formats each entry and reads the integer back.

class _TokenizerByPeek:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self._scan()

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("uint", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                word = text[i:j]
                if word in ("x", "z", "exp", "log", "ln"):
                    self.tokens.append((word, word, i))
                    i = j
                    continue
                raise ParseError(i, "'x', 'z', 'exp', 'log' or a number", repr(word))
            raise ParseError(i, "a token", repr(ch))
        self.tokens.append(("eof", "", len(text)))


_TOKEN_NAMES = {
    "+": "'+'", "-": "'-'", "*": "'*'", "/": "'/'", "^": "'^'",
    "(": "'('", ")": "')'",
}


class _ParserByPeek:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TokenizerByPeek(text).tokens
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                tok[2],
                _TOKEN_NAMES.get(kind, f"'{kind}'"),
                "end of input" if tok[0] == "eof" else repr(tok[1]),
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(tok[2], "end of input", repr(tok[1]))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.factor()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            child = self.factor()
            return Neg(child, (tok[2], child.span[1]))
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exponent, end = self.exponent()
            node = Pow(node, exponent, (node.span[0], end))
        return node

    def exponent(self) -> tuple[int, int]:
        if self.peek()[0] == "(":
            self.advance()
            value, _ = self._sint()
            closing = self.expect(")")
            return value, closing[2] + 1
        return self._sint()

    def _sint(self) -> tuple[int, int]:
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
        tok = self.expect("uint")
        value = int(tok[1])
        return (-value if negative else value), tok[2] + len(tok[1])

    def atom(self):
        tok = self.peek()
        kind, value, offset = tok
        if kind == "uint":
            self.advance()
            end = offset + len(value)
            numerator = int(value)
            if self.peek()[0] == "/" and self.peek(1)[0] == "uint":
                self.advance()
                dtok = self.advance()
                if int(dtok[1]) == 0:
                    raise ParseError(dtok[2], "a nonzero denominator", repr(dtok[1]))
                return Num(
                    Fraction(numerator, int(dtok[1])), (offset, dtok[2] + len(dtok[1]))
                )
            return Num(Fraction(numerator), (offset, end))
        if kind == "x":
            self.advance()
            return VarX((offset, offset + 1))
        if kind == "z":
            self.advance()
            return VarZ((offset, offset + 1))
        if kind in ("exp", "log", "ln"):
            self.advance()
            self.expect("(")
            arg = self.expr()
            closing = self.expect(")")
            func = "log" if kind == "ln" else kind
            return Call(func, arg, (offset, closing[2] + 1))
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            offset,
            "a number, 'x', 'z', '(', 'exp', 'log' or '-'",
            "end of input" if kind == "eof" else repr(value),
        )


def parse_by_peek(text: str):
    """The AST of ``text``, or its ParseError."""
    return _ParserByPeek(text).parse()


def _eval_by_series(node, order: int) -> Series:
    if isinstance(node, Num):
        return Series.constant(node.value, order)
    if isinstance(node, VarX):
        return Series.x(order)
    if isinstance(node, VarZ):
        return Series.constant(Z, order)
    if isinstance(node, Neg):
        return -_eval_by_series(node.child, order)
    if isinstance(node, BinOp):
        left = _eval_by_series(node.left, order)
        right = _eval_by_series(node.right, order)
        common = min(left.order, right.order)
        left, right = left.truncate(common), right.truncate(common)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Pow):
        base = _eval_by_series(node.base, order)
        try:
            return base**node.exponent
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Call):
        arg = _eval_by_series(node.arg, order)
        try:
            return arg.exp() if node.func == "exp" else arg.log()
        except ValueError as exc:
            raise EvalError(str(exc), node.span) from None
    raise TypeError(f"not an AST node: {type(node).__name__}")


def eval_series_by_series(node, order: int) -> Series:
    """The Series of an AST at ``order``, every leaf a Series; raises the
    working order past valuation-cancelling divisions as ``eval_series``."""
    if order < 1:
        raise ValueError("eval_series needs order >= 1")
    working = order
    for _ in range(8):
        result = _eval_by_series(node, working)
        if result.order >= order:
            return result.truncate(order)
        working += order - result.order
    raise ArithmeticError("expression keeps losing truncation order")


def eval_scalar_by_scalars(node) -> Scalar:
    """The Scalar of a z-only AST, its own walk apart from the series one."""
    if isinstance(node, Num):
        return Scalar(node.value)
    if isinstance(node, VarZ):
        return Z
    if isinstance(node, VarX):
        raise EvalError("x is not allowed in a scalar context", node.span)
    if isinstance(node, Neg):
        return -eval_scalar_by_scalars(node.child)
    if isinstance(node, BinOp):
        left = eval_scalar_by_scalars(node.left)
        right = eval_scalar_by_scalars(node.right)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        except ZeroDivisionError as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Pow):
        base = eval_scalar_by_scalars(node.base)
        try:
            return base**node.exponent
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Call):
        raise EvalError(f"{node.func} is not allowed in a scalar context", node.span)
    raise TypeError(f"not an AST node: {type(node).__name__}")


def triangle_to_bfile_by_strings(entries, lower: bool = True) -> str:
    """"n k value" lines, each value read back as ``int(str(entry))``."""
    lines = []
    for n, row in enumerate(entries):
        for k, entry in enumerate(row[:n + 1] if lower else row):
            cell = str(entry)
            try:
                value = int(cell)
            except ValueError:
                raise ValueError(
                    f"bfile format requires integer entries, got {cell!r}"
                ) from None
            lines.append(f"{n} {k} {value}")
    return "\n".join(lines) + "\n"


# The text ends of a JSON sequence as they were before the reader checked a
# cell once as a whole: one regex match per term, every quotient of a
# rational cell taken by the constructor, and a polynomial written with one
# gcd per coefficient and one chunk per term.

#: One term of a canonical polynomial: [-][c[/d]*]z[^k] or [-]c[/d].
_TERM_BY_TERMS = re.compile(
    r"(-?)(?:(\d+)(?:/(\d+))?\*)?z(?:\^(\d+))?|(-?)(\d+)(?:/(\d+))?", re.ASCII)


def read_poly_by_terms(text: str) -> PolyZ | None:
    """The polynomial written as ``str(PolyZ)`` writes it, or None, one
    regex match per term; terms may come in any order, repeated degrees add
    up."""
    coeffs = []  # (numerator, denominator, degree)
    for piece in text.replace(" - ", " + -").split(" + "):
        m = _TERM_BY_TERMS.fullmatch(piece)
        if m is None:
            return None
        sign, num, den, deg, csign, cnum, cden = m.groups()
        if cnum is not None:
            sign, num, den, deg = csign, cnum, cden, 0
        num = int(num) if num is not None else 1
        den = int(den) if den is not None else 1
        if not den:
            return None
        coeffs.append((-num if sign else num, den, 1 if deg is None else int(deg)))
    common = lcm(*(den for _, den, _ in coeffs))
    ints = [0] * (max(deg for _, _, deg in coeffs) + 1)
    for num, den, deg in coeffs:
        ints[deg] += num * (common // den)
    return PolyZ.from_integers(ints, common)


def read_scalar_by_terms(text: str) -> Scalar:
    """One JSON cell's text read as ``formats._read_scalar`` read it: the
    canonical form by ``read_poly_by_terms``, a quotient by the
    constructor, anything else by the expression parser."""
    if not text.startswith("("):
        num = read_poly_by_terms(text)
        return parse_scalar(text) if num is None else Scalar(num)
    num, sep, den = text[1:-1].partition(")/(")
    if sep and text.endswith(")"):
        num, den = read_poly_by_terms(num), read_poly_by_terms(den)
        if num is not None and den is not None and not den.is_zero:
            return Scalar(num, den)
    return parse_scalar(text)


def _terms_by_chunks(pairs) -> str:
    """(coefficient text, degree) pairs as a sum of powers of z, one chunk
    per term, each with its sign."""
    chunks = []
    for coeff, deg in pairs:
        negative = coeff[0] == "-"
        mag = coeff[1:] if negative else coeff
        if deg == 0:
            body = mag
        else:
            power = "z" if deg == 1 else f"z^{deg}"
            body = power if mag == "1" else f"{mag}*{power}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


def _ratio_by_gcd(n: int, d: int) -> str:
    g = gcd(n, d)
    return f"{n // g}/{d // g}" if g != d else str(n // d)


def polyz_str_by_parts(p: PolyZ) -> str:
    """``str(p)`` with one gcd per coefficient, also over an integer
    content, and one chunk per term."""
    n, d, prim = p._num, p._den, p._prim
    if len(prim) <= 1:
        return str(n) if d == 1 else f"{n}/{d}"
    return _terms_by_chunks((_ratio_by_gcd(n * c, d), k)
                            for k, c in reversed(list(enumerate(prim))) if c)


def scalar_str_by_parts(s: Scalar) -> str:
    """``str(s)`` with both polynomials written by ``polyz_str_by_parts``."""
    if s.is_polynomial:
        return polyz_str_by_parts(s.num)
    return f"({polyz_str_by_parts(s.num)})/({polyz_str_by_parts(s.den)})"


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
#: Rational functions with one denominator factor, (linear)/(1 + z)^k for
#: k in 0..1: their sums stay small, as in the paper's thm2 pair.
one_factor_rationals = st.builds(
    lambda p, k: Scalar(p, PolyZ([1, 1]) ** k), _linear, st.integers(0, 1)
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


#: Rational constants with denominators up to 4 (-5/2 and 1/3 among them),
#: zero drawn about half the time.
zfree_scalars = st.one_of(
    st.just(ZERO), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(Scalar))


@st.composite
def zfree_series(draw, order: int, valuation: int = 0, constant=None):
    """A z-free series of the given order, zero below ``valuation``; a
    ``constant`` strategy draws its coefficient at ``valuation``."""
    coeffs = [ZERO] * valuation + draw(
        st.lists(zfree_scalars, min_size=order + 1 - valuation, max_size=order + 1 - valuation))
    if constant is not None:
        coeffs[valuation] = draw(constant)
    return Series(coeffs)
