"""Truncated formal power series in x over Q(z).

A series carries exactly ``order + 1`` coefficients; absent higher terms are
truncated, never assumed zero.  All operations preserve the truncation order
except where noted (valuation-cancelling division, derivative), and every
computation is exact.  Coefficient sums run on the exact kernels of
``scalars``: ``dot``, and ``solve_lower`` for reversion.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar, _as_scalar, dot, solve_lower


class Series:
    """Coefficients of x^0 .. x^order, each an exact ``Scalar``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_as_scalar(c, "a series coefficient") for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs: tuple[Scalar, ...] = cs

    @classmethod
    def zero(cls, order: int) -> Series:
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        return _series((ZERO,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return _series((ONE,) + (ZERO,) * order)

    @classmethod
    def x(cls, order: int) -> Series:
        if order < 1:
            raise ValueError("series of x needs order >= 1")
        return _series((ZERO, ONE) + (ZERO,) * (order - 1))

    @classmethod
    def constant(cls, value, order: int) -> Series:
        return _series((_as_scalar(value, "a series coefficient"),) + (ZERO,) * order)

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
        if order == self.order:
            return self
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
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
        return _series(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> Series:
        return _series(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        return _series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def scale(self, factor) -> Series:
        f = _as_scalar(factor, "a series coefficient")
        return _series(f * c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
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
        (order - 2 series products), x = sum_k b_k f^k is one triangular
        solve, row m reading sum_{k<=m} b_k [x^m] f^k = [m = 1], with the
        diagonal [x^m] f^m = f_1^m.  The solve is exact, so the result g
        satisfies f(g) = x to the full order; the tests check that round
        trip and compare with Newton reversion.
        """
        n = self.order
        f = self.coeffs
        if n < 1 or not f[0].is_zero or f[1].is_zero:
            raise ValueError("not revertible")
        fpow = _powers(self, n - 1)
        # Row i is m = i + 1, unknown i is b_{i+1}.
        rows = [[fpow[k].coeffs[m] for k in range(1, m)] + [f[1] ** m]
                for m in range(1, n + 1)]
        unit = [(ONE,)] + [(ZERO,)] * (n - 1)
        return _series([ZERO] + [x[0] for x in solve_lower(rows, unit)])

    def exp(self) -> Series:
        """Formal exponential via E' = a'E; needs zero constant term."""
        if not self.coeffs[0].is_zero:
            raise ValueError("series exp needs zero constant term")
        n = self.order
        ja = [(j, self.coeffs[j] * j) for j in _support(self.coeffs)]
        e = [ONE]
        for m in range(1, n + 1):
            e.append(dot([(c, e[m - j]) for j, c in ja if j <= m]) / m)
        return _series(e)

    def log(self) -> Series:
        """Formal logarithm via L' = a'/a; needs unit constant term."""
        if self.coeffs[0] != ONE:
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
        return Series((k + 1) * self.coeffs[k + 1] for k in range(n))

    def integral(self) -> Series:
        """Term-wise antiderivative with zero constant term, one order up."""
        return _series([ZERO] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

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


def _series(coeffs) -> Series:
    """A Series from nonempty Scalar coefficients, taken as they are."""
    out = object.__new__(Series)
    out.coeffs = tuple(coeffs)
    return out


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
    ka = [k for k in _support(a) if k <= top]
    return _series(dot([(a[k], powers[k].coeffs[m]) for k in ka if k <= m])
                   for m in range(outer.order + 1))
