"""Truncated formal power series in x over Q(z).

A series carries exactly ``order + 1`` coefficients; absent higher terms are
truncated, never assumed zero.  All operations preserve the truncation order
except where noted (valuation-cancelling division, derivative), and every
computation is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    coerced = Scalar._coerce(value)
    if coerced is None:
        raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")
    return coerced


class Series:
    """Coefficients of x^0 .. x^order, each an exact ``Scalar``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_as_scalar(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs: tuple[Scalar, ...] = cs

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls([ZERO] * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls([ONE] + [ZERO] * order)

    @classmethod
    def x(cls, order: int) -> Series:
        if order < 1:
            raise ValueError("series of x needs order >= 1")
        return cls([ZERO, ONE] + [ZERO] * (order - 1))

    @classmethod
    def constant(cls, value, order: int) -> Series:
        return cls([_as_scalar(value)] + [ZERO] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                return k
        return None

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series(self.coeffs[: order + 1])

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
        return Series(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> Series:
        return Series(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        return Series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def scale(self, factor) -> Series:
        f = _as_scalar(factor)
        return Series(f * c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            acc = ZERO
            for j in range(k + 1):
                if not a[j].is_zero and not b[k - j].is_zero:
                    acc = acc + a[j] * b[k - j]
            out.append(acc)
        return Series(out)

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
        result = Series.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def compose(self, inner: Series) -> Series:
        """outer(inner(x)) truncated; inner must have zero constant term.

        Reads [x^m] outer(inner) = sum_k a_k [x^m] inner^k off a table of
        the powers of inner: at most order - 1 series products plus an
        O(order^2) coefficient sum.
        """
        self._check_order(inner)
        if not inner.coeffs[0].is_zero:
            raise ValueError("composition needs valuation >= 1")
        return _compose_powers(self, _powers(inner, _degree(self)))

    def revert(self) -> Series:
        """Compositional inverse by Lagrange inversion in matrix form.

        Needs f(0) = 0 and f'(0) != 0.  With the powers f^k tabled once
        (order - 2 series products), x = sum_k b_k f^k is solved row by row
        as an O(order^2) triangular system: b_1 = 1/f_1 and
        b_m = -(sum_{k<m} b_k [x^m] f^k) / f_1^m.  The solve is exact, so the
        result g satisfies f(g) = x to the full order; the tests check that
        round trip and compare with Newton reversion.
        """
        n = self.order
        f = self.coeffs
        if n < 1 or not f[0].is_zero or f[1].is_zero:
            raise ValueError("not revertible")
        fpow = _powers(self, n - 1)
        inv_f1 = ONE / f[1]
        b = [ZERO, inv_f1]
        inv_f1_pow = inv_f1
        for m in range(2, n + 1):
            inv_f1_pow = inv_f1_pow * inv_f1
            acc = ZERO
            for k in range(1, m):
                c = fpow[k].coeffs[m]
                if not b[k].is_zero and not c.is_zero:
                    acc = acc + b[k] * c
            b.append(-acc * inv_f1_pow)
        return Series(b)

    def exp(self) -> Series:
        """Formal exponential via E' = a'E; needs zero constant term."""
        if not self.coeffs[0].is_zero:
            raise ValueError("series exp needs zero constant term")
        n = self.order
        a = self.coeffs
        e = [ONE]
        for m in range(1, n + 1):
            acc = ZERO
            for j in range(1, m + 1):
                if not a[j].is_zero:
                    acc = acc + (j * a[j]) * e[m - j]
            e.append(acc / m)
        return Series(e)

    def log(self) -> Series:
        """Formal logarithm via L' = a'/a; needs unit constant term."""
        if self.coeffs[0] != ONE:
            raise ValueError("series log needs unit constant term")
        n = self.order
        if n == 0:
            return Series.zero(0)
        q = self.derivative() / self.truncate(n - 1)
        out = [ZERO]
        for m in range(1, n + 1):
            out.append(q.coeffs[m - 1] / m)
        return Series(out)

    def derivative(self, order: int | None = None) -> Series:
        """Term-wise d/dx; the natural result order is one less than the input.

        An explicit ``order`` truncates or zero-extends the result; the
        extended top coefficients are fabricated zeros, so extension is only
        sound for polynomial content.
        """
        n = self.order
        if n == 0:
            out = Series.zero(0)
        else:
            out = Series((k + 1) * self.coeffs[k + 1] for k in range(n))
        if order is None:
            return out
        if order <= out.order:
            return out.truncate(order)
        return Series(out.coeffs + (ZERO,) * (order - out.order))

    def eval_z(self, v) -> Series:
        """Specialize every coefficient at z = v (errors on a pole)."""
        return Series(Scalar(c.eval_z(v)) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Series", self.coeffs))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
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
        return f"{body} + O(x^{self.order + 1})"

    def __repr__(self):
        return f"Series({self})"


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
        a = Series(a.coeffs[bv:])
        b = Series(b.coeffs[bv:])
    n = a.order
    binv = ONE / b.coeffs[0]
    q: list[Scalar] = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(k):
            if not q[j].is_zero and not b.coeffs[k - j].is_zero:
                acc = acc - q[j] * b.coeffs[k - j]
        q.append(acc * binv)
    return Series(q)


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
    out = []
    for m in range(outer.order + 1):
        acc = ZERO
        for k in range(min(m, top) + 1):
            c = powers[k].coeffs[m]
            if not a[k].is_zero and not c.is_zero:
                acc = acc + a[k] * c
        out.append(acc)
    return Series(out)
