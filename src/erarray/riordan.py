"""Exponential Riordan arrays to finite order.

An array [g, f] is the lower-triangular matrix whose column k has exponential
generating function g(x) f(x)^k / k!.  The group law is read off the left
factor's columns by the fundamental theorem of Riordan arrays,
[x^m] g (u o f) = sum_k u_k [x^m] g f^k: two matrix-vector products and
one series division, O(order^2) coefficient work.  Each call computes one
route, and matrix-level identities are left to ``erarray.checks`` and the
test suite to recompute independently.

The production series c and r (c o f = g'/g, r o f = f') come from one
lower-triangular solve against the array's own columns, with two right-hand
sides read off the defining pair; each array solves once and builds c and
r once.  They give the production matrix, the reversion fbar = integral of
1/r and the inverse [exp(-integral of c/r)/g(0), fbar], so nothing here
reverts a series.  The production matrix is also computed directly from
the shifted-array relation DA = AP, which uses the array alone.  Both leave
the final row zeroed: at finite truncation the information for it sits
past the horizon, so callers compare rows 0..order-1 only.

Every operation has one route over ``Series`` values: the array keeps its
columns g f^k as series, and a few private kernels of ``series`` read them
(the chain of columns, the entries, the linear combinations of the group
law and ``er_apply``, the solve for c and r, and the coefficients of c and
r over one denominator).  Those kernels run on the integer form of
``series`` when the series they read hold it, and on ``Scalar``s
otherwise; nothing here knows which.  Entries are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

# invert_lower_triangular is not called here; the import is kept because
# perfbench/selftest.py checks that the tracer also wraps this bound copy.
from .orthopoly import JacobiParams, invert_lower_triangular  # noqa: F401
from .scalars import ONE, ZERO, Scalar, _as_scalar, solve_lower
from .series import Series, _chain, _combine, _egf_columns, _numerators, _solve_columns


@dataclass(frozen=True)
class ERArray:
    """Lower-triangular realization of [g, f] with its defining pair retained.

    ``er_build`` makes an array without entries: its columns are built on
    first use, and ``entries`` from them on first read.
    """

    g: Series
    f: Series
    entries: tuple[tuple[Scalar, ...], ...]

    def __getattr__(self, name):
        # Reached only while ``entries`` is unset, on an array made by
        # ``er_build``.
        if name != "entries":
            raise AttributeError(name)
        entries = _lower_rows(_egf_columns(self._columns))
        object.__setattr__(self, "entries", entries)
        return entries

    @cached_property
    def _columns(self) -> list[Series]:
        """The series g f^k, k = 0..order."""
        return _chain(self.g, self.f)

    @property
    def order(self) -> int:
        return self.g.order

    def row(self, n: int) -> tuple[Scalar, ...]:
        return self.entries[n][: n + 1]

    @cached_property
    def fbar(self) -> Series:
        """The compositional inverse of f, as the integral of 1/r.

        r o f = f', so fbar' = 1/(f' o fbar) = 1/r; r is exact to order-1,
        which makes fbar exact to the full order.
        """
        r = self._cr[1]
        return (Series.one(r.order) / r).integral()

    @cached_property
    def _cr(self) -> tuple[Series, Series]:
        """The production series (c, r), solved once on the columns.

        g (c o f) = g' and g (r o f) = g f'; reading off [x^m] by the
        fundamental theorem gives the lower-triangular systems
        sum_{j<=m} ([x^m] g f^j) c_j = [x^m] g' and the same with g f' for
        r, m < order, one solve with two right-hand sides.
        """
        n = self.order
        if n < 1:
            raise ValueError("production data needs order >= 1")
        g = self.g
        return tuple(_solve_columns(self._columns, [g.derivative(),
                                                    g.truncate(n - 1) * self.f.derivative()]))

    def column(self, k: int) -> tuple[Scalar, ...]:
        """Column k, rows 0..order, off the series g f^k alone (g for k = 0)."""
        col = self._columns[k] if k else self.g
        return (ZERO,) * k + tuple(_egf_columns([col], k)[0])

    def moments(self) -> tuple[Scalar, ...]:
        """First column: the moment sequence the array generates."""
        return self.column(0)

    def row_sums(self) -> tuple[Scalar, ...]:
        return er_apply(self, [ONE] * (self.order + 1))

    def eval_z(self, v) -> ERArray:
        """Specialize every entry (and the defining pair) at z = v."""
        return er_build(self.g.eval_z(v), self.f.eval_z(v))


@dataclass(frozen=True)
class ProductionMatrix:
    """Lower-Hessenberg matrix P with DA = AP.

    When computed at the defining array's full order, the final row sits
    past the truncation horizon and is zeroed; callers compare rows
    0..order-1.
    """

    entries: tuple[tuple[Scalar, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    def row(self, n: int) -> tuple[Scalar, ...]:
        return self.entries[n]


def er_build(g: Series, f: Series) -> ERArray:
    """Construct [g, f]; needs g(0) != 0, f(0) = 0 and f'(0) != 0.

    A[r][k] = (r!/k!) [x^r] g f^k, column k read off the chain
    g f^k = (g f^(k-1)) f.  The chain is built when the array's columns
    are first used, and the entries from it on first read.
    """
    if g.order != f.order:
        raise ValueError(
            f"not a valid exponential Riordan pair: order mismatch "
            f"{g.order} != {f.order}"
        )
    if f.order < 1 or f.valuation() != 1 or g.valuation() != 0:
        raise ValueError("not a valid exponential Riordan pair")
    out = object.__new__(ERArray)
    out.__dict__.update(g=g, f=f)
    return out


def _lower_rows(columns) -> tuple[tuple[Scalar, ...], ...]:
    """The square entries of an array from its columns, each from row k down."""
    return tuple(zip(*([ZERO] * k + col for k, col in enumerate(columns))))


def identity(order: int) -> ERArray:
    """The group identity [1, x]."""
    return er_build(Series.one(order), Series.x(order))


def er_mul(a: ERArray, b: ERArray) -> ERArray:
    """Group law: [g, f] * [h, l] = [g (h o f), l o f], from the columns of a.

    g (h o f) and g (l o f) are read off the columns in one pass; l o f is
    the second divided by g.
    """
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    gh, gl = _combine(a._columns, [b.g, b.f])
    return er_build(gh, gl / a.g)


def er_inverse(a: ERArray) -> ERArray:
    """Group inverse [1/(g o fbar), fbar], with no reversion.

    (log g o fbar)' = (g'/g o fbar) fbar' = c/r and fbar' = 1/r, so
    1/(g o fbar) = exp(-integral of c/r)/g(0).
    """
    c = a._cr[0]
    fbar = a.fbar
    log_ratio = (c * fbar.derivative()).integral()
    return er_build((-log_ratio).exp() / a.g.coefficient(0), fbar)


def er_power(a: ERArray, m: int) -> ERArray:
    """m-th group power (m may be negative).

    The pair of a^m comes from m left multiplications of [1, x] by a (or
    by its inverse), each read off the same columns, and is built once.
    """
    if m < 0:
        return er_power(er_inverse(a), -m)
    g, f = Series.one(a.order), Series.x(a.order)
    for _ in range(m):
        g, f = _combine(a._columns, [g, f])
        f = f / a.g
    return er_build(g, f)


def er_apply(a: ERArray, u) -> tuple[Scalar, ...]:
    """Image of a sequence under the array: the matrix-vector product.

    Its exponential generating function is g(x) U(f(x)), U the e.g.f. of
    u, read off the columns like the group law; the tests compare it with
    the product by rows.
    """
    n = a.order
    us = [_as_scalar(t) / factorial(k) for k, t in enumerate(u)]
    if len(us) != n + 1:
        raise ValueError(f"sequence length mismatch: need {n + 1}, got {len(us)}")
    return tuple(_egf_columns(_combine(a._columns, [Series(us)]))[0])


def production_cr(a: ERArray) -> tuple[Series, Series]:
    """The c and r series of the production matrix, both exact to order-1.

    c o f = g'/g and r o f = f'; the pair is the array's cached triangular
    solve and is built once per array.
    """
    return a._cr


def production_from_pair(a: ERArray) -> ProductionMatrix:
    """Production matrix from the defining pair.

    Entry (i, j) is (i!/j!) (c_{i-j} + j r_{i-j+1}) with c_{-1} = 0, for
    rows 0..order-1; the final row is zeroed.  c and r are read as
    numerators over one denominator, so each entry is one sum of
    numerators, made a Scalar once.
    """
    n = a.order
    (cs, rs), scalars = _numerators(a._cr)
    rows = []
    for i in range(n):
        nums, weight = [rs[0]], 1  # entries j = i+1 down to 0; weight = i!/j!
        for j in range(i, 0, -1):
            nums.append(weight * (cs[i - j] + j * rs[i - j + 1]))
            weight *= j
        nums.append(weight * cs[i])
        rows.append(tuple(scalars(nums[::-1])) + (ZERO,) * (n - 1 - i))
    rows.append((ZERO,) * (n + 1))
    return ProductionMatrix(entries=tuple(rows))


def production_direct(a: ERArray) -> ProductionMatrix:
    """Production matrix from DA = AP by forward substitution on the rows.

    Row i of P solves A[0..i] against row i+1 of A, so rows 0..order-1 are
    one ``solve_lower`` against the shifted rows and come out exactly; the
    final row would need row order+1 of A and is zeroed.
    """
    n = a.order
    if n < 1:
        raise ValueError("production data needs order >= 1")
    rows = solve_lower(a.entries, a.entries[1:])
    rows.append(tuple([ZERO] * (n + 1)))
    return ProductionMatrix(entries=tuple(rows))


def extract_jacobi(p: ProductionMatrix) -> JacobiParams:
    """Read (alpha_n, beta_n) off a tridiagonal production matrix.

    Requires rows 0..order-1 to be tridiagonal with unit superdiagonal;
    alpha_n is the diagonal, beta_n the subdiagonal.
    """
    n = p.order
    for i in range(n):
        for j in range(max(i - 1, 0)):
            if not p.entries[i][j].is_zero:
                raise ValueError(
                    f"production matrix not tridiagonal: offending entry ({i}, {j})"
                )
    for i in range(n):
        if p.entries[i][i + 1] != ONE:
            raise ValueError(
                f"not monic form: superdiagonal entry ({i}, {i + 1}) is "
                f"{p.entries[i][i + 1]}"
            )
    alpha = tuple(p.entries[i][i] for i in range(n))
    beta = tuple(p.entries[i][i - 1] for i in range(1, n))
    return JacobiParams(alpha=alpha, beta=beta, a0=ONE)

