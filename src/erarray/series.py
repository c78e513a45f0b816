"""Truncated formal power series in x over Q(z).

A series carries exactly ``order + 1`` coefficients; absent higher terms are
truncated, never assumed zero.  All operations preserve the truncation order
except where noted (valuation-cancelling division, derivative), and every
computation is exact.

A series whose every coefficient is a rational constant also holds them in
one private integer form (D, ints): the coefficients are ints[k] / D, with
D > 0 and gcd(D, *ints) = 1, so the form of a value is unique.  The leaves
``zero``, ``one``, ``x`` and ``constant`` of a rational start in it, and the
public constructor sets it whenever every coefficient is rational;
``eval_z`` gives it directly, from the values of each coefficient's
numerator and denominator on ints.  When
both operands have it, ``+``, ``-``, negation, rational ``scale``, ``*``,
``divide`` (valuation-cancelling too), ``**``, ``exp``, ``log``,
``derivative``, ``integral`` and ``truncate`` run on ints and give the form
again, and the ``Scalar`` coefficients are built once, on first read of
``coeffs``.  A series with z anywhere in it, and every operation with such
an operand, runs on ``Scalar``s through the exact kernels of ``scalars``:
``dot``, and ``solve_lower`` for the triangular solve.

The form is known to this module only.  ``riordan`` keeps an array's
columns g f^k as series and calls the private kernels at the end of this
module for every array operation: the chain of columns, the entries
(r!/k!) [x^r] g f^k, linear combinations of the columns, the triangular
solve against them and the coefficients of several series over one
denominator.  Each kernel runs on ints when every series it reads holds
the form, and on ``Scalar``s otherwise.  ``compose`` and ``revert`` run on
the same kernels, over the columns f^k of [1, f]: composition is one
combination of them and reversion one solve against them, so on z-free
operands both run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul

from .scalars import (ONE, POLY_ONE, ZERO, Scalar, _as_fraction, _as_scalar, _format_terms,
                      _rational_scalars, _scalar_at, dot, solve_lower)


class Series:
    """Coefficients of x^0 .. x^order, each an exact ``Scalar``.

    ``_q`` is the integer form (D, ints) of a z-free series, or None.  A
    series made in that form leaves the ``coeffs`` slot unset until it is
    first read (``__getattr__``), so the route over ``Scalar``s never pays a
    lookup for it.
    """

    __slots__ = ("coeffs", "_q")

    def __init__(self, coeffs):
        cs = tuple(_as_scalar(c, "a series coefficient") for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs: tuple[Scalar, ...] = cs
        self._q = _rational_form(cs)

    def __getattr__(self, name):
        # Reached only for an unset slot: ``coeffs`` of a series made in the
        # integer form, whose Scalars are built here once.
        if name != "coeffs":
            raise AttributeError(name)
        d, ints = self._q
        cs = self.coeffs = tuple(_rational_scalars(ints, d))
        return cs

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> Series:
        if order < 1:
            raise ValueError("series of x needs order >= 1")
        return _ints(1, [0, 1] + [0] * (order - 1))

    @classmethod
    def constant(cls, value, order: int) -> Series:
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        if isinstance(value, (int, Fraction)):
            return _ints(value.denominator, [value.numerator] + [0] * order)
        c = _as_scalar(value, "a series coefficient")
        r = _rational(c)
        if r is None:
            return _series((c,) + (ZERO,) * order)
        return _ints(r[1], [r[0]] + [0] * order)

    @property
    def order(self) -> int:
        q = self._q
        return len(q[1]) - 1 if q else len(self.coeffs) - 1

    def coefficient(self, k: int) -> Scalar:
        q = self._q
        if q:
            return _rational_scalars([q[1][k]], q[0])[0]
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        q = self._q
        if q:
            return not any(q[1])
        return all(c.is_zero for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        q = self._q
        for k, c in enumerate(q[1] if q else self.coeffs):
            if c:
                return k
        return None

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        if order == self.order:
            return self
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        q = self._q
        if q:
            return _reduce(q[0], q[1][: order + 1])
        return _series(self.coeffs[: order + 1])

    def _check_order(self, other: Series) -> None:
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} != {other.order}")

    def _lift(self, other):
        """Coerce scalar-likes to a constant series of matching order."""
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        if self._q and other._q:
            return _int_sum(self._q, other._q, 1)
        return _series(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> Series:
        q = self._q
        if q:
            return _ints(q[0], [-c for c in q[1]])
        return _series(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        if self._q and other._q:
            return _int_sum(self._q, other._q, -1)
        return _series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def scale(self, factor) -> Series:
        f = _as_scalar(factor, "a series coefficient")
        q = self._q
        r = _rational(f) if q else None
        if r is None:
            return _series(f * c for c in self.coeffs)
        n, d = r
        return _reduce(q[0] * d, [c * n for c in q[1]])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        if self._q and other._q:
            (da, a), (db, b) = self._q, other._q
            return _reduce(da * db, _convolve(a, b))
        n = self.order
        a, b = self.coeffs, other.coeffs
        ib = _support(b)
        terms = [[] for _ in range(n + 1)]
        for i in _support(a):
            ai = a[i]
            for j in ib:
                if i + j > n:
                    break
                terms[i + j].append((ai, b[j]))
        return _series(dot(t) for t in terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = _as_scalar(other)
            if s.is_zero:
                raise ZeroDivisionError("series division by zero")
            return self.scale(ONE / s)
        if not isinstance(other, Series):
            return NotImplemented
        return divide(self, other)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return divide(other, self)

    def __pow__(self, exponent: int) -> Series:
        if not isinstance(exponent, int):
            raise ValueError("series power needs an integer exponent")
        if exponent < 0:
            return (Series.one(self.order) / self) ** (-exponent)
        if not exponent:
            return Series.one(self.order)
        # Square up to the lowest set bit, then once per higher bit:
        # floor(log2 e) + popcount(e) - 1 products.
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base
        while exponent := exponent >> 1:
            base = base * base
            if exponent & 1:
                result = result * base
        return result

    def compose(self, inner: Series) -> Series:
        """outer(inner(x)) truncated; inner must have zero constant term.

        By the fundamental theorem of Riordan arrays, outer(inner) is the
        image of outer under the columns inner^k of [1, inner], which stop
        at outer's last nonzero index: one chain of columns and one
        combination of them.
        """
        self._check_order(inner)
        if inner.valuation() == 0:
            raise ValueError("composition needs valuation >= 1")
        q = self._q
        top = max((k for k, c in enumerate(q[1] if q else self.coeffs) if c), default=0)
        return _combine(_columns_of(inner, top), [self])[0]

    def revert(self) -> Series:
        """Compositional inverse by Lagrange inversion in matrix form.

        Needs f(0) = 0 and f'(0) != 0.  x = sum_k b_k f^k is one triangular
        solve against the columns f^k of [1, f], whose diagonal entries
        [x^m] f^m = f_1^m are nonzero.  The solve reads only that diagonal
        entry of the last column, and truncated at order n, f^n is exactly
        f_1^n x^n since v(f) = 1, so columns 0..n-1 come from the chain and
        the last is that monomial.  The solve is exact, so the result g
        satisfies f(g) = x to the full order; the tests check that round
        trip and compare with Newton reversion.
        """
        n = self.order
        if n < 1 or self.valuation() != 1:
            raise ValueError("not revertible")
        q = self._q
        last = (_reduce(q[0] ** n, [0] * n + [q[1][1] ** n]) if q
                else _series([ZERO] * n + [self.coeffs[1] ** n]))
        return _solve_columns(_columns_of(self, n - 1) + [last], [Series.x(n)])[0]

    def exp(self) -> Series:
        """Formal exponential via E' = a'E; needs zero constant term."""
        if self.valuation() == 0:
            raise ValueError("series exp needs zero constant term")
        if self._q:
            return _int_exp(*self._q)
        n = self.order
        ja = [(j, self.coeffs[j] * j) for j in _support(self.coeffs)]
        e = [ONE]
        for m in range(1, n + 1):
            e.append(dot([(c, e[m - j]) for j, c in ja if j <= m]) / m)
        return _series(e)

    def log(self) -> Series:
        """Formal logarithm via L' = a'/a; needs unit constant term."""
        if self.coefficient(0) != ONE:
            raise ValueError("series log needs unit constant term")
        n = self.order
        if n == 0:
            return Series.zero(0)
        return (self.derivative() / self.truncate(n - 1)).integral()

    def derivative(self) -> Series:
        """Term-wise d/dx; the result order is one less than the input's
        (the zero series at order 0)."""
        n = self.order
        if n == 0:
            return Series.zero(0)
        q = self._q
        if q:
            a = q[1]
            return _reduce(q[0], [k * a[k] for k in range(1, n + 1)])
        return _series((k + 1) * self.coeffs[k + 1] for k in range(n))

    def integral(self) -> Series:
        """Term-wise antiderivative with zero constant term, one order up."""
        q = self._q
        if q:
            # Over lcm(1..order+1), each a_k / (k+1) is one product.
            top = lcm(*range(1, len(q[1]) + 1))
            return _reduce(q[0] * top, [0] + [c * (top // k) for k, c in enumerate(q[1], 1)])
        return _series([ZERO] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def eval_z(self, v) -> Series:
        """Specialize every coefficient at z = v (errors on a pole).

        Each numerator and denominator is evaluated on ints by Horner's
        rule, and the values go into the integer form over their lcm,
        reduced by one gcd.
        """
        if self._q:
            return self
        v = _as_fraction(v)
        values = [_scalar_at(c, v) for c in self.coeffs]
        common = lcm(*(d for _, d in values))
        return _reduce(common, [n * (common // d) for n, d in values])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self._q and other._q:
            return self._q == other._q
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Series", self.coeffs))

    def __str__(self):
        # A coefficient of x^k, k >= 1, whose text has a space is a sum.
        texts = ((str(c), k) for k, c in enumerate(self.coeffs) if not c.is_zero)
        body = _format_terms(((f"({t})" if k and " " in t else t, k) for t, k in texts), "x")
        return f"{body or '0'} + O(x^{self.order + 1})"

    def __repr__(self):
        return f"Series({self})"


def _series(coeffs) -> Series:
    """A Series from nonempty Scalar coefficients, taken as they are and
    without the integer form: every operation on it runs on Scalars."""
    out = object.__new__(Series)
    out.coeffs = tuple(coeffs)
    out._q = None
    return out


def _ints(d: int, ints: list) -> Series:
    """The Series ints[k] / d from its integer form, already reduced."""
    out = object.__new__(Series)
    out._q = (d, ints)
    return out


def _reduce(d: int, ints: list) -> Series:
    """The Series ints[k] / d, for d > 0, reduced by one gcd."""
    h = gcd(d, *ints)
    if h != 1:
        d //= h
        ints = [c // h for c in ints]
    return _ints(d, ints)


def _rational(s: Scalar) -> tuple[int, int] | None:
    """(n, d) with s = n/d in lowest terms and d > 0, or None when s has z."""
    p = s.num
    if s.den is not POLY_ONE or len(p._prim) > 1:
        return None
    return p._num, p._den


def _rational_form(cs) -> tuple[int, list[int]] | None:
    """The integer form (D, ints) of Scalars that are all rational
    constants, D the lcm of their denominators; None as soon as one has z.

    Over the lcm every prime power of D divides some denominator exactly,
    whose numerator it does not divide, so the form is reduced.
    """
    rs = []
    for c in cs:
        r = _rational(c)
        if r is None:
            return None
        rs.append(r)
    d = lcm(*(e for _, e in rs))
    return d, [n * (d // e) for n, e in rs]


def _int_sum(p, q, sign: int) -> Series:
    """p + sign * q for two integer forms."""
    (da, a), (db, b) = p, q
    if da == db:
        return _reduce(da, [x + sign * y for x, y in zip(a, b)])
    h = gcd(da, db)
    ma, mb = db // h, sign * (da // h)
    return _reduce(da * ma, [x * ma + y * mb for x, y in zip(a, b)])


def _convolve(a: list, b: list) -> list:
    """[x^m] of the product of two integer coefficient lists, m <= len - 1.

    Each coefficient is one fused sum over the band of indices where both
    factors can be nonzero, from their valuations to their degrees.
    """
    n = len(a) - 1
    sa = [i for i, c in enumerate(a) if c]
    sb = [i for i, c in enumerate(b) if c]
    out = [0] * (n + 1)
    if not sa or not sb:
        return out
    va, ta, vb, tb = sa[0], sa[-1], sb[0], sb[-1]
    for m in range(va + vb, min(n, ta + tb) + 1):
        lo, hi = max(va, m - tb), min(ta, m - vb)
        out[m] = sum(map(mul, a[lo:hi + 1], reversed(b[m - hi:m - lo + 1])))
    return out


def _append_over(xs: list, den: int, s: int, t: int) -> int:
    """Append s / (t den) to ``xs``, ints over the common denominator den,
    and return the new common denominator, the lcm of den and the new
    term's reduced denominator; t != 0.

    The common denominator changes, and every earlier term is multiplied
    up once, only when t den / gcd(s, t den) does not divide den.
    """
    if t < 0:
        s, t = -s, -t
    if not s % t:
        xs.append(s // t)
        return den
    h = gcd(s, t * den)
    dm = t * den // h
    new = lcm(den, dm)
    if new != den:
        k = new // den
        xs[:] = [x * k for x in xs]
    xs.append(s // h * (new // dm))
    return new


def _int_quotient(a: list, b: list) -> tuple[int, list]:
    """(E, q) with q[k] / E the coefficients of a/b, for integer lists with
    b[0] != 0: q_k = (a_k - sum_{i>=1} b_i q_(k-i)) / b_0 over a running
    common denominator, which stays 1 when b_0 = 1."""
    b0 = b[0]
    tb = max(i for i, c in enumerate(b) if c)
    q: list[int] = []
    den = 1
    for k, ak in enumerate(a):
        t = min(k, tb)
        s = ak * den - sum(map(mul, b[1:t + 1], reversed(q[k - t:k])))
        if b0 == 1:
            q.append(s)
        else:
            den = _append_over(q, den, s, b0)
    return den, q


def _int_exp(d: int, a: list) -> Series:
    """exp of (d, a), a[0] = 0: m e_m = sum_j j a_j e_(m-j), each e_m
    appended over a running common denominator."""
    ja = [(j, j * c) for j, c in enumerate(a) if c]
    e, den = [1], 1
    for m in range(1, len(a)):
        s = sum(c * e[m - j] for j, c in ja if j <= m)
        den = _append_over(e, den, s, m * d)
    return _reduce(den, e)


def divide(a: Series, b: Series) -> Series:
    """Truncated quotient a/b.

    When b has a unit constant term this is plain division at the common
    order.  When b has valuation v > 0, a must be divisible by x^v as well;
    the common factor is cancelled and the quotient comes back at order
    ``order - v``.
    """
    a._check_order(b)
    bv = b.valuation()
    if bv is None:
        raise ZeroDivisionError("series division by zero")
    if bv > 0:
        av = a.valuation()
        if av is not None and av < bv:
            raise ValueError("series division needs unit or common factor")
    if a._q and b._q:
        (da, an), (db, bn) = a._q, b._q
        den, q = _int_quotient(an[bv:], bn[bv:])
        return _reduce(da * den, [c * db for c in q])
    if bv > 0:
        a = _series(a.coeffs[bv:])
        b = _series(b.coeffs[bv:])
    # q_k = (a_k - sum_{i>=1} q_{k-i} b_i) / b_0, one dot product per term.
    binv = ONE / b.coeffs[0]
    nb = [(i, -b.coeffs[i] * binv) for i in _support(b.coeffs) if i]
    q: list[Scalar] = []
    for k, ak in enumerate(a.coeffs):
        q.append(dot([(ak, binv)] + [(q[k - i], c) for i, c in nb if i <= k]))
    return _series(q)


def _support(coeffs) -> list[int]:
    """Indices of the nonzero coefficients, ascending."""
    return [k for k, c in enumerate(coeffs) if not c.is_zero]


# Kernels of the array operations of ``riordan``, on the columns g f^k of
# an array: each runs on ints when every series it reads holds the integer
# form, and on Scalars otherwise.

def _chain(g: Series, f: Series, top: int | None = None) -> list[Series]:
    """g f^k for k = 0..top (top = order by default), each from the last:
    g f^k = (g f^(k-1)) f.

    On ints, g f^k is held over one denominator D_k = D_(k-1) d_f, reduced
    by the gcd of the column, and [x^m] g f^k = sum_i [x^i] g f^(k-1) f_(m-i)
    runs only over the band max(k-1, m-t) <= i < m, since f(0) = 0 and
    f_j = 0 past the last nonzero index t (t = 1 for f = x, and t = 0 for
    f = 0).  Otherwise it is a chain of series products.
    """
    n = g.order
    top = n if top is None else top
    cols = [g]
    if not (g._q and f._q):
        for _ in range(top):
            cols.append(cols[-1] * f)
        return cols
    d, col = g._q
    df, fs = f._q
    t = max((j for j, c in enumerate(fs) if c), default=0)
    rf = fs[::-1]  # rf[n - j] = f_j
    for k in range(1, top + 1):
        prev, col = col, [0] * (n + 1)
        for m in range(k, n + 1):
            lo = max(k - 1, m - t)
            col[m] = sum(map(mul, prev[lo:m], rf[n - m + lo:n]))
        d *= df
        h = gcd(d, *col)
        if h != 1:
            d //= h
            col = [c // h for c in col]
        cols.append(_ints(d, col))
    return cols


def _columns_of(f: Series, top: int) -> list[Series]:
    """The columns f^k, k = 0..top, of [1, f]: 1, then the chain from f
    itself, so f^1 costs no product."""
    one = Series.one(f.order)
    return [one] + _chain(f, f, top - 1) if top else [one]


def _egf_columns(cols: list[Series], first: int = 0) -> list[list[Scalar]]:
    """(r!/k!) [x^r] cols[i] for r = k..order, k = first + i, for each i:
    column k of an array from row k down, and the e.g.f. coefficients of
    cols[0] for first = 0."""
    n = cols[0].order
    out = []
    for k, col in enumerate(cols, first):
        q = col._q
        cs = q[1] if q else col.coeffs
        column, weight = [], 1  # weight = r!/k!
        for r in range(k, n + 1):
            column.append(cs[r] * weight)
            weight *= r + 1
        out.append(_rational_scalars(column, q[0]) if q else column)
    return out


def _combine(cols: list[Series], us: list[Series]) -> list[Series]:
    """sum_k u_k cols[k] for each u in ``us``, in one pass over the columns.

    On ints each coefficient is one sum per row over lcm(D_k) for the k
    with u_k != 0; otherwise one ``dot`` per coefficient.  cols[k] has
    valuation >= k, so row m needs only k <= m.
    """
    n = cols[0].order
    rows = list(zip(*(c._q[1] for c in cols))) if all(c._q for c in cols) else None
    out = []
    for u in us:
        if rows is not None and u._q:
            du, a = u._q
            support = [k for k, c in enumerate(a) if c]
            common = lcm(*(cols[k]._q[0] for k in support))
            weights = [0] * (n + 1)
            for k in support:
                weights[k] = a[k] * (common // cols[k]._q[0])
            out.append(_reduce(du * common, [sum(map(mul, weights, row)) for row in rows]))
            continue
        a = u.coeffs
        support = _support(a)
        cs = [c.coeffs for c in cols]
        out.append(_series(dot([(a[k], cs[k][m]) for k in support if k <= m])
                           for m in range(n + 1)))
    return out


def _solve_columns(cols: list[Series], rhss: list[Series]) -> list[Series]:
    """For each rhs, the series c of rhs's order with
    sum_{j<=m} ([x^m] cols[j]) c_j = [x^m] rhs for m = 0..rhs.order.

    On ints, with y_j = c_j D_r / D_j the system is sum_j C_j[m] y_j = R_m,
    C_j the ints of column j and (D_r, R) the form of rhs.  Forward
    substitution keeps y over one running denominator, multiplied up only
    by the part of a diagonal C_m[m] that the row's sum does not cancel.
    Otherwise it is one ``solve_lower`` for every rhs at once.
    """
    size = rhss[0].order + 1
    cols = cols[:size]
    if all(c._q for c in cols) and all(r._q for r in rhss):
        rows = list(zip(*(c._q[1] for c in cols)))[:size]
        out = []
        for rhs in rhss:
            dr, r = rhs._q
            y: list[int] = []
            den = 1
            for m, row in enumerate(rows):
                t = row[m]
                if not t:
                    raise ZeroDivisionError(f"singular diagonal entry at ({m}, {m})")
                den = _append_over(y, den, r[m] * den - sum(map(mul, row[:m], y)), t)
            out.append(_reduce(den * dr, [v * c._q[0] for v, c in zip(y, cols)]))
        return out
    cs = [c.coeffs for c in cols]
    rows = [[cs[j][m] for j in range(m + 1)] for m in range(size)]
    xs = solve_lower(rows, list(zip(*(r.coeffs for r in rhss))))
    return [_series(x) for x in zip(*xs)]


def _numerators(ss: list[Series]):
    """The coefficients of each series in ``ss`` as numerators over one
    denominator, with the map from a list of numerators to their Scalars:
    ints over the lcm of the denominators when every series holds the
    integer form, else the Scalars themselves, over 1."""
    if all(s._q for s in ss):
        common = lcm(*(s._q[0] for s in ss))
        return ([[v * (common // s._q[0]) for v in s._q[1]] for s in ss],
                partial(_rational_scalars, d=common))
    return [s.coeffs for s in ss], list
