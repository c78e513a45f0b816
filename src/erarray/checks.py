"""The paper's identities, each written once.

Each target in ``SUITES`` is a generator of ``(name, ok, detail)`` rows at
one truncation order: ``name`` states the identity, ``ok`` says whether it
holds exactly, and ``detail`` is what to show when it does not.  Every row
is one comparison of an expected value with the value computed, built by
``_equal``, so a failing row shows both.  ``erarray verify`` prints these
rows and the acceptance tests assert them.  Where a row compares two routes
(the production matrix from the pair and from DA = AP, the Hankel
determinants and the beta product, an array and its closed form), the
second route is computed here, not inside the library call.  An array is
compared with its closed form through the defining pairs, which at full
order is the same condition as equal entries.
"""

from __future__ import annotations

from math import comb, factorial

from .hankel import hankel_from_betas, hankel_transform
from .orthopoly import moments_from_jacobi
from .riordan import (
    er_build,
    er_inverse,
    er_mul,
    er_power,
    extract_jacobi,
    production_direct,
    production_from_pair,
)
from .scalars import ONE, ZERO, PolyZ, Scalar, Z, _integer
from .sequences import bell_poly, eulerian_poly, named_pair, stirling2
from .series import Series

# Displayed rows of the example corpus.  Production rows run to the first
# entry of the superdiagonal; array rows are the lower triangle.
SETS_OF_LISTS_P = (
    (0, 1), (0, 2, 1), (0, 2, 4, 1), (0, 0, 6, 6, 1),
    (0, 0, 0, 12, 8, 1), (0, 0, 0, 0, 20, 10),
)
LAGUERRE_P = (
    (1, 1), (1, 3, 1), (0, 4, 5, 1), (0, 0, 9, 7, 1),
    (0, 0, 0, 16, 9, 1), (0, 0, 0, 0, 25, 11),
)
CHARLIER_ROWS = (
    (1,), (1, 1), (1, 3, 1), (1, 8, 6, 1), (1, 24, 29, 10, 1),
    (1, 89, 145, 75, 15, 1),
)


def _equal(name: str, expected, actual, show=None):
    """A row comparing two values; on failure its detail shows both.

    Both are shown through ``show``, lists by default as lists of ``str`` of
    their values, and only when the row fails, so a passing row formats
    nothing however large its values.
    """
    ok = expected == actual
    if ok:
        return name, ok, ""
    if show is not None:
        expected, actual = show(expected), show(actual)
    elif isinstance(expected, list):
        expected, actual = [str(v) for v in expected], [str(v) for v in actual]
    return name, ok, f"expected: {expected}\nactual:   {actual}"


def _rows_text(rows) -> str:
    return "[" + "; ".join(
        "(" + ", ".join(str(e) for e in row) + ")" for row in rows
    ) + "]"


def _tridiagonal(alpha_of, beta_of, order: int):
    """Rows 0..order-1, width order+1, of a tridiagonal unit-superdiagonal P."""
    rows = []
    for i in range(order):
        row = [ZERO] * (order + 1)
        if i >= 1:
            row[i - 1] = beta_of(i)
        row[i] = alpha_of(i)
        row[i + 1] = ONE
        rows.append(tuple(row))
    return tuple(rows)


def _hankel_closed_form(base: Scalar, factorial_power: int, nmax: int) -> list[Scalar]:
    """base^C(n+1,2) prod_{k<=n} k!^factorial_power for n = 0..nmax.

    Built up as h_n = h_{n-1} base^n n!^factorial_power, from h_0 = 1.
    """
    out = []
    h = ONE
    for n in range(nmax + 1):
        h = h * base ** n * factorial(n) ** factorial_power
        out.append(h)
    return out


def _laguerre(r: int, k: int) -> int:
    return factorial(r) // factorial(k) * comb(r, k)


def _signed_laguerre(r: int, k: int) -> int:
    return (-1) ** (r - k) * _laguerre(r, k)


def _pair(a) -> list:
    """The defining pair [g, f] of an array.

    At full order, two arrays have equal entries exactly when their pairs
    are equal: column 0 is g, column 1 is g f, and g(0) != 0.  So an array
    is compared with a closed form [g, f] without building the second array.
    """
    return [a.g, a.f]


def _ints(entries, widths) -> list:
    """Entries (r, k), k < widths[r], row by row, as ints; a non-integer reads None."""
    return [_integer(entries[r][k]) for r, width in enumerate(widths) for k in range(width)]


def _table(term, widths) -> list:
    """term(r, k) for the cells that ``_ints`` reads with the same widths."""
    return [term(r, k) for r, width in enumerate(widths) for k in range(width)]


def _production(label: str, a, p, alpha_of, beta_of):
    n = a.order
    yield _equal(
        f"{label}: production matrix (pair method) is the displayed tridiagonal",
        _tridiagonal(alpha_of, beta_of, n), p.entries[:n], _rows_text,
    )
    yield _equal(
        f"{label}: production methods agree on rows 0..{n - 1}",
        production_direct(a).entries[:n], p.entries[:n], _rows_text,
    )


def thm1(order: int):
    """e_n(z) are the moments of the family with alpha_n = z + n, beta_n = n z."""
    n = order
    a = er_build(*named_pair("thm1", n))
    p = production_from_pair(a)
    yield from _production("thm1", a, p, lambda i: Z + i, lambda i: Z * i)
    params = extract_jacobi(p)
    bell = [Scalar(bell_poly(k)) for k in range(n + 1)]
    yield _equal(
        "thm1: first column equals the exponential polynomials e_n(z)",
        bell, list(a.moments()),
    )
    yield _equal(
        "thm1: moments of the extracted Jacobi data are e_n(z)",
        bell, list(moments_from_jacobi(params, n).terms),
    )
    nmax = n // 2
    hankel = hankel_transform(bell, nmax)
    yield _equal(
        "thm1: Hankel transform of e_n(z) is z^C(n+1,2) prod k!",
        _hankel_closed_form(Z, 1, nmax), hankel,
    )
    # Any JacobiParams has |beta| = |alpha| - 1: joined lists compare both.
    yield _equal(
        "thm1: Jacobi parameters are alpha_n = z + n, beta_n = n z",
        [Z + i for i in range(n)] + [Z * i for i in range(1, n)],
        list(params.alpha + params.beta),
    )
    m = min(nmax, len(params.beta))
    yield _equal(
        "thm1: beta-product formula matches the Hankel transform",
        hankel[: m + 1], hankel_from_betas(params, m),
    )
    x, one = Series.x(n), Series.one(n)
    yield _equal(
        "thm1: inverse array is [exp(-z x), log(1+x)]",
        [(x * (-Z)).exp(), (one + x).log()], _pair(er_inverse(a)),
    )
    # Entry (r, k) is the polynomial with coefficient S(r, j) C(j, k) at
    # z^(j-k); each S(r, j) is computed once.
    s2 = [[stirling2(r, j) for j in range(r + 1)] for r in range(n + 1)]
    yield _equal(
        "thm1: factorization L(n,k) = sum_j S(n,j) C(j,k) z^(j-k)",
        [Scalar(PolyZ.from_integers([s2[r][j] * comb(j, k) for j in range(k, r + 1)]))
         for r in range(n + 1) for k in range(r + 1)],
        [a.entries[r][k] for r in range(n + 1) for k in range(r + 1)],
    )
    yield _equal(
        "thm1: Hankel transform of the row sums is (z+1)^C(n+1,2) prod k!",
        _hankel_closed_form(Z + 1, 1, nmax), hankel_transform(a.row_sums(), nmax),
    )


def thm2(order: int):
    """EU_n(z) are the moments of the family with alpha_n = (n+1)z + n, beta_n = n^2 z."""
    n = order
    a = er_build(*named_pair("thm2", n))
    p = production_from_pair(a)
    yield from _production(
        "thm2", a, p, lambda i: Z * (i + 1) + i, lambda i: Z * (i * i)
    )
    eulerian = [Scalar(eulerian_poly(k)) for k in range(n + 1)]
    yield _equal(
        "thm2: first column equals the Eulerian polynomials EU_n(z)",
        eulerian, list(a.moments()),
    )
    yield _equal(
        "thm2: moments of the extracted Jacobi data are EU_n(z)",
        eulerian, list(moments_from_jacobi(extract_jacobi(p), n).terms),
    )
    nmax = n // 2
    yield _equal(
        "thm2: Hankel transform of EU_n(z) is z^C(n+1,2) prod k!^2",
        _hankel_closed_form(Z, 2, nmax), hankel_transform(eulerian, nmax),
    )
    x, one = Series.x(n), Series.one(n)
    fbar = ((one + x * Z).log() - (one + x).log()) * (ONE / (Z - 1))
    # g o fbar evaluates to 1 + z x, so the inverse g-part is its reciprocal.
    inv = er_inverse(a)
    yield _equal(
        "thm2: inverse array is [1/(1+zx), log((1+zx)/(1+x))/(z-1)]",
        [one / (one + x * Z), fbar, one, x], _pair(inv) + _pair(er_mul(a, inv)),
    )
    # Each entry is a polynomial in the coefficients of g and f, and at z = 1
    # g(0) and f'(0) stay 1, so the pair specialised at 1 builds the entries
    # specialised at 1, on the z-free route.
    lower = range(1, n + 2)
    yield _equal(
        "thm2: entries at z = 1 equal the Laguerre-type array (n!/k!) C(n,k)",
        _table(_laguerre, lower), _ints(a.eval_z(1).entries, lower),
    )
    yield _equal(
        "thm2: inverse entries at z = 1 are the signed Laguerre coefficients",
        _table(_signed_laguerre, lower), _ints(inv.eval_z(1).entries, lower),
    )


def examples(order: int):
    """The worked examples: Pascal, Lah-like, sets of lists, Laguerre, Charlier."""
    n = order
    x, one = Series.x(n), Series.one(n)
    lower = range(1, n + 2)

    binomial = er_build(*named_pair("binomial", n))
    yield _equal(
        "examples: [e^x, x] realizes Pascal's triangle",
        _table(comb, lower), _ints(binomial.entries, lower),
    )
    yield _equal(
        "examples: [e^x, x]^3 = [e^{3x}, x]",
        [(x * 3).exp(), x], _pair(er_power(binomial, 3)),
    )

    lah = er_build(*named_pair("lah_like", n))
    yield _equal(
        "examples: [1/(1-x), x] has general term n!/k!",
        _table(lambda r, k: factorial(r) // factorial(k), lower), _ints(lah.entries, lower),
    )
    # Entries fixed by the generating function e^{tw}(1/(1-w) + t): the
    # array itself plus a unit superdiagonal.
    square = [n + 1] * n
    yield _equal(
        "examples: production of [1/(1-x), x] matches its generating function",
        _table(lambda i, j: factorial(i) // factorial(j) if j <= i else int(j == i + 1), square),
        _ints(production_from_pair(lah).entries, square),
    )
    yield _equal(
        "examples: inverse of [1/(1-x), x] is [1-x, x]",
        [one - x, x], _pair(er_inverse(lah)),
    )

    sol = er_build(*named_pair("sets_of_lists", n))
    yield _equal(
        "examples: [1, x/(1-x)] has general term (n!/k!) C(n-1, n-k)",
        _table(
            lambda r, k: 1 if r == 0 else factorial(r) // factorial(k) * comb(r - 1, r - k),
            lower,
        ),
        _ints(sol.entries, lower),
    )
    yield _equal(
        "examples: row sums of [1, x/(1-x)] count sets of lists",
        [Scalar(v) for v in (1, 1, 3, 13, 73, 501)][: n + 1], list(sol.row_sums()[:6]),
    )
    yield _equal(
        "examples: inverse of [1, x/(1-x)] is [1, x/(1+x)]",
        [one, x / (one + x)], _pair(er_inverse(sol)),
    )
    rows = SETS_OF_LISTS_P[:n]
    yield _equal(
        "examples: production of [1, x/(1-x)] matches the displayed matrix",
        [v for row in rows for v in row],
        _ints(production_from_pair(sol).entries, map(len, rows)),
    )

    lag = er_build(*named_pair("laguerre", n))
    yield _equal(
        "examples: [1/(1-x), x/(1-x)] has general term (n!/k!) C(n,k)",
        _table(_laguerre, lower), _ints(lag.entries, lower),
    )
    p_lag = production_from_pair(lag)
    rows = LAGUERRE_P[:n]
    yield _equal(
        "examples: production of [1/(1-x), x/(1-x)] matches the displayed matrix",
        [v for row in rows for v in row], _ints(p_lag.entries, map(len, rows)),
    )
    yield _equal(
        "examples: inverse of [1/(1-x), x/(1-x)] is the signed Laguerre array",
        _table(_signed_laguerre, lower), _ints(er_inverse(lag).entries, lower),
    )
    params = extract_jacobi(p_lag)
    yield _equal(
        "examples: Laguerre-type Jacobi data is alpha_n = 2n+1, beta_n = n^2",
        [Scalar(2 * i + 1) for i in range(n)] + [Scalar(i * i) for i in range(1, n)],
        list(params.alpha + params.beta),
    )
    yield _equal(
        "examples: moments of [1/(1-x), x/(1-x)] are the factorials",
        [Scalar(factorial(k)) for k in range(n + 1)], list(lag.moments()),
    )

    charlier = er_build(*named_pair("charlier", n))
    rows = CHARLIER_ROWS[: n + 1]
    yield _equal(
        "examples: [e^x, log(1/(1-x))] matches the displayed rows",
        [v for row in rows for v in row], _ints(charlier.entries, map(len, rows)),
    )
    inv_charlier = er_inverse(charlier)
    emx = (x * (-1)).exp()
    yield _equal(
        "examples: inverse of the Charlier array is [e^{-(1-e^{-x})}, 1-e^{-x}]",
        [((one - emx) * (-1)).exp(), one - emx], _pair(inv_charlier),
    )
    yield _equal(
        "examples: production of the Charlier inverse is the displayed tridiagonal",
        _tridiagonal(lambda i: Scalar(-(i + 1)), Scalar, n),
        production_from_pair(inv_charlier).entries[:n], _rows_text,
    )


#: Target name -> generator of (name, ok, detail) rows at a given order.
SUITES = {"thm1": thm1, "thm2": thm2, "examples": examples}
