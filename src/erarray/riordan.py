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

The defining pair picks the route.  When g and f both hold the integer
form of ``series`` (every coefficient a rational constant), the array keeps
its columns g f^k as ints over one denominator each, and the group law, the
solve for c and r, and the production matrix run on those ints; the
entries are built from them on first read.  Any z in the pair makes it a
chain of ``Series`` products over Q(z), with entries built at once, and
the group law, the solve and the production matrix run on ``Scalar``s
through ``dot`` and ``solve_lower``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, gcd, lcm
from operator import mul

# invert_lower_triangular is not called here; the import is kept because
# perfbench/selftest.py checks that the tracer also wraps this bound copy.
from .orthopoly import JacobiParams, invert_lower_triangular  # noqa: F401
from .scalars import ONE, ZERO, Scalar, _as_scalar, _rational_scalar, dot, solve_lower
from .series import Series, _append_over, _rational_form, _reduce, _series


@dataclass(frozen=True)
class ERArray:
    """Lower-triangular realization of [g, f] with its defining pair retained.

    ``er_build`` makes a z-free array without entries: its integer columns
    are built on first use, and ``entries`` from them on first read.
    """

    g: Series
    f: Series
    entries: tuple[tuple[Scalar, ...], ...]

    def __getattr__(self, name):
        # Reached only while ``entries`` is unset, on a z-free array made by
        # ``er_build``.
        if name != "entries" or self._columns is None:
            raise AttributeError(name)
        entries = _lower_rows(_scalar_columns(self._columns))
        object.__setattr__(self, "entries", entries)
        return entries

    @cached_property
    def _columns(self) -> list[tuple[int, list[int]]] | None:
        """Column k as (D_k, ints), [x^m] g f^k = ints[m] / D_k for
        m = 0..order, when g and f hold the integer form; else None."""
        g, f = self.g._q, self.f._q
        return _columns_by_integers(g, f) if g and f else None

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
    def _rows(self) -> list[tuple[int, ...]]:
        """Row m of the integer columns: the ints of [x^m] g f^k, k = 0..order."""
        return list(zip(*(col for _, col in self._columns)))

    @cached_property
    def _gamma_rho(self) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
        """gamma_j = j! c_j and rho_j = j! r_j for j < order, solved once,
        for an array over Q(z).

        g (c o f) = g' and g (r o f) = g f'.  Since m! [x^m] g f^j = j! A[m][j],
        reading off m! [x^m] gives the lower-triangular systems
        sum_j A[m][j] gamma_j = m! [x^m] g' and
        sum_j A[m][j] rho_j = m! [x^m] (g f') for m < order,
        one ``solve_lower`` with two right-hand sides.
        """
        n = self.order
        if n < 1:
            raise ValueError("production data needs order >= 1")
        dg = self.g.derivative().coeffs
        gdf = (self.g.truncate(n - 1) * self.f.derivative()).coeffs
        rhs = [(dg[m] * factorial(m), gdf[m] * factorial(m)) for m in range(n)]
        return tuple(zip(*solve_lower(self.entries, rhs)))

    @cached_property
    def _cr(self) -> tuple[Series, Series]:
        """The production series (c, r), built once: on a z-free array
        solved on its integer columns, otherwise gamma_j / j! and rho_j / j!."""
        if self._columns is not None:
            n = self.order
            if n < 1:
                raise ValueError("production data needs order >= 1")
            g = self.g
            return (_solve_columns(self, g.derivative()),
                    _solve_columns(self, g.truncate(n - 1) * self.f.derivative()))
        gamma, rho = self._gamma_rho
        return (Series(v / factorial(j) for j, v in enumerate(gamma)),
                Series(v / factorial(j) for j, v in enumerate(rho)))

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
    """Construct [g, f]; needs g(0) != 0, f(0) = 0 and f'(0) != 0.

    A[r][k] = (r!/k!) [x^r] g f^k, column k read off the chain
    g f^k = (g f^(k-1)) f.  The input picks the route: when g and f both
    hold the integer form of ``series`` the chain runs on ints, over one
    denominator per column (``_columns_by_integers``), when the array's
    columns are first used, and the entries are built from them on first
    read; otherwise it is a chain of ``Series`` products over Q(z), run
    here.  Both give the same canonical entries.
    """
    if g.order != f.order:
        raise ValueError(
            f"not a valid exponential Riordan pair: order mismatch "
            f"{g.order} != {f.order}"
        )
    if f.order < 1 or f.valuation() != 1 or g.valuation() != 0:
        raise ValueError("not a valid exponential Riordan pair")
    if g._q and f._q:
        out = object.__new__(ERArray)
        out.__dict__.update(g=g, f=f)
        return out
    return ERArray(g=g, f=f, entries=_lower_rows(_columns_by_series(g, f)))


def _columns_by_series(g: Series, f: Series) -> list[list[Scalar]]:
    """Column k of [g, f] from row k down, by n series products over Q(z)."""
    n = g.order
    columns = []
    col = g
    for k in range(n + 1):
        if k:
            col = col * f
        column, weight = [], 1  # weight = r!/k!
        for r in range(k, n + 1):
            column.append(col.coeffs[r] * weight)
            weight *= r + 1
        columns.append(column)
    return columns


def _columns_by_integers(gq, fq) -> list[tuple[int, list[int]]]:
    """The integer forms (D_k, ints) of g f^k, k = 0..order, for z-free g
    and f given by theirs.

    g f^k is held as ints over one denominator D_k = D_(k-1) d_f, reduced
    by the gcd of the column.  [x^m] g f^k = sum_i [x^i] g f^(k-1) f_(m-i)
    runs only over the band max(k-1, m-t) <= i < m, since f(0) = 0 and
    f_j = 0 past the last nonzero index t (t = 1 for f = x).
    """
    d, col = gq
    df, fs = fq
    n = len(col) - 1
    t = max(j for j, c in enumerate(fs) if c)
    columns = [(d, col)]
    for k in range(1, n + 1):
        prev, col = col, [0] * (n + 1)
        for m in range(k, n + 1):
            lo = max(k - 1, m - t)
            col[m] = sum(map(mul, prev[lo:m], reversed(fs[1:m - lo + 1])))
        d *= df
        h = gcd(d, *col)
        if h != 1:
            d //= h
            col = [c // h for c in col]
        columns.append((d, col))
    return columns


def _scalar_columns(columns) -> list[list[Scalar]]:
    """Column k of the array from row k down, from the integer columns:
    A[r][k] = (r!/k!) ints[r] / D_k, one Scalar with one gcd each."""
    n = len(columns) - 1
    out = []
    for k, (d, col) in enumerate(columns):
        column, weight = [], 1  # weight = r!/k!
        for r in range(k, n + 1):
            column.append(_rational_scalar(col[r] * weight, d))
            weight *= r + 1
        out.append(column)
    return out


def _lower_rows(columns) -> tuple[tuple[Scalar, ...], ...]:
    """The square entries of an array from its columns, each from row k down."""
    n = len(columns) - 1
    return tuple(tuple([columns[k][r - k] for k in range(r + 1)] + [ZERO] * (n - r))
                 for r in range(n + 1))


def _solve_columns(a: ERArray, rhs: Series) -> Series:
    """The series c of order a.order - 1 with
    sum_{j<=m} ([x^m] g f^j) c_j = [x^m] rhs for m < a.order, on the
    integer columns of a z-free array and a z-free rhs.

    With y_j = c_j D_r / D_j the system is sum_j C_j[m] y_j = R_m over
    ints, C_j the ints of column j and (D_r, R) the form of rhs.  Forward
    substitution keeps y over one running denominator, multiplied up only
    by the part of a diagonal C_m[m] that the row's sum does not cancel.
    """
    dr, r = rhs._q
    cols = a._columns
    y: list[int] = []
    den = 1
    for m, row in enumerate(a._rows[:len(r)]):
        t = row[m]
        if not t:
            raise ZeroDivisionError(f"singular diagonal entry at ({m}, {m})")
        den = _append_over(y, den, r[m] * den - sum(map(mul, row[:m], y)), t)
    return _reduce(den * dr, [v * cols[j][0] for j, v in enumerate(y)])


def identity(order: int) -> ERArray:
    """The group identity [1, x]."""
    return er_build(Series.one(order), Series.x(order))


def _rows_times(a: ERArray, vec) -> list[Scalar]:
    """The matrix-vector product of the array with ``vec``, one dot per row."""
    return [dot(zip(row[:m + 1], vec)) for m, row in enumerate(a.entries)]


def _left_image(a: ERArray, u: Series) -> Series:
    """a.g (u o a.f), read off the columns of ``a``.

    By the fundamental theorem of Riordan arrays,
    [x^m] a.g (u o a.f) = sum_k u_k [x^m] g f^k = sum_k A[m][k] k! u_k / m!.
    On a z-free array and u it is one sum of ints per row over
    lcm(D_k) for the k with u_k != 0; otherwise one dot per row.
    """
    if a._columns is None or not u._q:
        vec = [c * factorial(k) for k, c in enumerate(u.coeffs)]
        return _series(v / factorial(m) for m, v in enumerate(_rows_times(a, vec)))
    du, us = u._q
    cols = a._columns
    support = [k for k, c in enumerate(us) if c]
    common = lcm(*(cols[k][0] for k in support))
    weights = [0] * len(us)
    for k in support:
        weights[k] = us[k] * (common // cols[k][0])
    return _reduce(du * common, [sum(map(mul, weights, row)) for row in a._rows])


def er_mul(a: ERArray, b: ERArray) -> ERArray:
    """Group law: [g, f] * [h, l] = [g (h o f), l o f], from the columns of a.

    g (h o f) is one matrix-vector product; l o f is g (l o f), another,
    divided by g.
    """
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    return er_build(_left_image(a, b.g), _left_image(a, b.f) / a.g)


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
        g, f = _left_image(a, g), _left_image(a, f) / a.g
    return er_build(g, f)


def er_apply(a: ERArray, u) -> tuple[Scalar, ...]:
    """Image of a sequence under the array: the matrix-vector product.

    Its exponential generating function is g(x) U(f(x)), U the e.g.f. of u;
    on a z-free array and sequence it is read off that route, on the
    integer columns, and the tests compare the two.
    """
    n = a.order
    vec = [_as_scalar(t) for t in u]
    if len(vec) != n + 1:
        raise ValueError(f"sequence length mismatch: need {n + 1}, got {len(vec)}")
    q = _rational_form(vec) if a._columns is not None else None
    if q is None:
        return tuple(_rows_times(a, vec))
    # U_k = u_k / k! over du n!, then m! [x^m] g (U o f).
    du, us = q
    weights = [factorial(n) // factorial(k) for k in range(n + 1)]
    d, image = _left_image(a, _reduce(du * weights[0], list(map(mul, us, weights))))._q
    return tuple(_rational_scalar(c * factorial(m), d) for m, c in enumerate(image))


def production_cr(a: ERArray) -> tuple[Series, Series]:
    """The c and r series of the production matrix, both exact to order-1.

    c o f = g'/g and r o f = f'; the pair is the array's cached triangular
    solve and is built once per array.
    """
    return a._cr


def production_from_pair(a: ERArray) -> ProductionMatrix:
    """Production matrix from the defining pair.

    Entry (i, j) is (i!/j!) (c_{i-j} + j r_{i-j+1}) with c_{-1} = 0, that is
    C(i, j) gamma_{i-j} + C(i, j-1) rho_{i-j+1} in gamma_k = k! c_k and
    rho_k = k! r_k, for rows 0..order-1; the final row is zeroed.  On a
    z-free array each entry is one int over lcm of the denominators of c
    and r; otherwise one ``dot`` of the cached gamma and rho.
    """
    n = a.order
    if a._columns is not None:
        (dc, cs), (dr, rs) = (s._q for s in a._cr)
        common = lcm(dc, dr)
        cs = [v * (common // dc) for v in cs]
        rs = [v * (common // dr) for v in rs]
        rows = []
        for i in range(n):
            row = [ZERO] * (n + 1)
            row[i + 1] = _rational_scalar(rs[0], common)
            row[0] = _rational_scalar(factorial(i) * cs[i], common)
            weight = 1  # i!/j!
            for j in range(i, 0, -1):
                row[j] = _rational_scalar(weight * (cs[i - j] + j * rs[i - j + 1]), common)
                weight *= j
            rows.append(tuple(row))
        rows.append(tuple([ZERO] * (n + 1)))
        return ProductionMatrix(entries=tuple(rows))
    gamma, rho = a._gamma_rho
    rows = []
    for i in range(n):
        binom = [Scalar(comb(i, j)) for j in range(i + 1)]
        row = [ZERO] * (n + 1)
        for j in range(i + 2):
            pairs = [(binom[j], gamma[i - j])] if j <= i else []
            if j:
                pairs.append((binom[j - 1], rho[i - j + 1]))
            row[j] = dot(pairs)
        rows.append(tuple(row))
    rows.append(tuple([ZERO] * (n + 1)))
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

