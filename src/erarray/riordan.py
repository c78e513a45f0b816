"""Exponential Riordan arrays to finite order.

An array [g, f] is the lower-triangular matrix whose column k has exponential
generating function g(x) f(x)^k / k!.  The group law and inverses are
computed on the defining series (exact, O(order^2) coefficient work); each
call computes one route, and matrix-level identities are left to
``erarray.checks`` and the test suite to recompute independently.

Production matrices are computed two independent ways: from the defining
pair through the c/r series, and directly from the shifted-array relation.
Both leave the final row zeroed: at finite truncation the information for it
sits past the horizon, so callers compare rows 0..order-1 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

# invert_lower_triangular is not called here; the import is kept because
# perfbench/selftest.py checks that the tracer also wraps this bound copy.
from .orthopoly import JacobiParams, invert_lower_triangular  # noqa: F401
from .scalars import ONE, ZERO, Scalar
from .series import Series, _compose_powers, _degree, _powers


def _as_scalar(value) -> Scalar:
    s = Scalar._coerce(value)
    if s is None:
        raise TypeError(f"cannot use {type(value).__name__} as a scalar")
    return s


@dataclass(frozen=True)
class ERArray:
    """Lower-triangular realization of [g, f] with its defining pair retained."""

    g: Series
    f: Series
    entries: tuple[tuple[Scalar, ...], ...]

    @property
    def order(self) -> int:
        return self.g.order

    def row(self, n: int) -> tuple[Scalar, ...]:
        return self.entries[n][: n + 1]

    @cached_property
    def fbar(self) -> Series:
        """The compositional inverse of f, reverted once per array."""
        return self.f.revert()

    def column(self, k: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[n][k] for n in range(self.order + 1))

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
    """Construct [g, f]; needs g(0) != 0, f(0) = 0 and f'(0) != 0."""
    if g.order != f.order:
        raise ValueError(
            f"not a valid exponential Riordan pair: order mismatch "
            f"{g.order} != {f.order}"
        )
    if f.order < 1 or not f.coeffs[0].is_zero or f.coeffs[1].is_zero \
            or g.coeffs[0].is_zero:
        raise ValueError("not a valid exponential Riordan pair")
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


def identity(order: int) -> ERArray:
    """The group identity [1, x]."""
    return er_build(Series.one(order), Series.x(order))


def er_mul(a: ERArray, b: ERArray) -> ERArray:
    """Group law: [g, f] * [h, l] = [g (h o f), l o f]."""
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    powers = _powers(a.f, max(_degree(b.g), _degree(b.f)))
    return er_build(a.g * _compose_powers(b.g, powers), _compose_powers(b.f, powers))


def er_inverse(a: ERArray) -> ERArray:
    """Group inverse [1/(g o fbar), fbar] with fbar the reversion of f."""
    fbar = a.fbar
    inv = er_build(Series.one(a.order) / a.g.compose(fbar), fbar)
    inv.__dict__["fbar"] = a.f  # the reversion of fbar is f: seed the cache
    return inv


def er_power(a: ERArray, m: int) -> ERArray:
    """m-th group power (m may be negative)."""
    if m < 0:
        return er_power(er_inverse(a), -m)
    acc = identity(a.order)
    for _ in range(m):
        acc = er_mul(acc, a)
    return acc


def er_apply(a: ERArray, u) -> tuple[Scalar, ...]:
    """Image of a sequence under the array: the matrix-vector product.

    Its exponential generating function is g(x) U(f(x)), U the e.g.f. of u;
    the tests compare that route with this one.
    """
    n = a.order
    vec = [_as_scalar(t) for t in u]
    if len(vec) != n + 1:
        raise ValueError(f"sequence length mismatch: need {n + 1}, got {len(vec)}")
    return tuple(
        sum((a.entries[r][k] * vec[k] for k in range(r + 1)), ZERO)
        for r in range(n + 1)
    )


def production_cr(a: ERArray) -> tuple[Series, Series]:
    """The c and r series of the production matrix, both exact to order-1.

    r o f = f' and c o f = g'/g, so r = f' o fbar and c = (g'/g) o fbar.
    """
    n = a.order
    if n < 1:
        raise ValueError("production data needs order >= 1")
    fbar = a.fbar.truncate(n - 1)
    fprime = a.f.derivative()
    log_g_prime = a.g.derivative() / a.g.truncate(n - 1)
    powers = _powers(fbar, max(_degree(fprime), _degree(log_g_prime)))
    return _compose_powers(log_g_prime, powers), _compose_powers(fprime, powers)


def production_from_pair(a: ERArray) -> ProductionMatrix:
    """Production matrix from the defining pair.

    Entry (i, j) is (i!/j!) (c_{i-j} + j r_{i-j+1}) with c_{-1} = 0, for
    rows 0..order-1; the final row is zeroed.
    """
    n = a.order
    c, r = production_cr(a)
    rows = []
    for i in range(n):
        fi = factorial(i)
        row = [ZERO] * (n + 1)
        for j in range(min(i + 1, n) + 1):
            ci = c.coeffs[i - j] if i - j >= 0 else ZERO
            term = ci + (j * r.coeffs[i - j + 1] if j >= 1 else ZERO)
            row[j] = term * Scalar(fi) / factorial(j)
        rows.append(tuple(row))
    rows.append(tuple([ZERO] * (n + 1)))
    return ProductionMatrix(entries=tuple(rows))


def production_direct(a: ERArray) -> ProductionMatrix:
    """Production matrix from DA = AP by forward substitution on the rows.

    Row i of P solves A[0..i] against row i+1 of A, so rows 0..order-1 come
    out exactly; the final row would need row order+1 of A and is zeroed.
    """
    n = a.order
    if n < 1:
        raise ValueError("production data needs order >= 1")
    ent = a.entries
    rows: list[tuple[Scalar, ...]] = []
    for i in range(n):
        if ent[i][i].is_zero:
            raise ZeroDivisionError(f"singular diagonal entry at ({i}, {i})")
        b = list(ent[i + 1])
        for k in range(i):
            coeff = ent[i][k]
            if not coeff.is_zero:
                b = [bj - coeff * pj for bj, pj in zip(b, rows[k])]
        inv = ONE / ent[i][i]
        rows.append(tuple(bj * inv for bj in b))
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

