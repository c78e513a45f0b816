"""Hankel matrices, exact determinants and the Hankel transform.

Determinants of polynomial matrices use Bareiss fraction-free elimination,
which keeps every intermediate value in Q[z] via exact divisions.  Matrices
with genuine rational-function entries are cleared column-wise to polynomial
form first (tracking the cleared factor).  The Hankel transform reads all
its determinants off the pivots of one such elimination.  The tests check
these routes against fraction-field Gaussian elimination and cofactor
expansion.
"""

from __future__ import annotations

from math import comb

from .orthopoly import JacobiParams, MomentSequence
from .scalars import POLY_ONE, POLY_ZERO, ZERO, PolyZ, Scalar


def _terms(seq) -> tuple[Scalar, ...]:
    if isinstance(seq, MomentSequence):
        return seq.terms
    out = []
    for t in seq:
        s = Scalar._coerce(t)
        if s is None:
            raise TypeError(f"cannot use {type(t).__name__} as a sequence term")
        out.append(s)
    return tuple(out)


def _square(m):
    """``m`` itself, after checking that it is square."""
    for row in m:
        if len(row) != len(m):
            raise ValueError("determinant needs a square matrix")
    return m


def _pivots(m, swap_rows: bool):
    """Yield the pivots of one-step Bareiss elimination of the square PolyZ
    matrix ``m``, which is eliminated in place.

    Every division by the previous pivot is exact in Q[z], and by
    Sylvester's identity the k-th pivot is the leading principal k x k minor
    (Bareiss, Math. Comp. 22, 1968).  A vanishing pivot ends the run with a
    zero unless ``swap_rows`` is set and some row below has a nonzero entry
    in the pivot column; that row is swapped up and negated, which keeps
    the determinant, so the last pivot is the determinant.
    """
    size = len(m)
    prev = POLY_ONE
    for k in range(size):
        if m[k][k].is_zero:
            below = range(k + 1, size) if swap_rows else ()
            i = next((i for i in below if not m[i][k].is_zero), None)
            if i is None:
                yield POLY_ZERO
                return
            m[k], m[i] = [-e for e in m[i]], m[k]
        pivot = m[k][k]
        yield pivot
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = POLY_ZERO
        prev = pivot


def det_bareiss(rows) -> PolyZ:
    """Fraction-free determinant of a square PolyZ matrix.

    Vanishing pivots are handled by row swaps; a fully zero pivot column
    means the determinant is zero.
    """
    pivots = list(_pivots(_square([list(row) for row in rows]), swap_rows=True))
    return pivots[-1] if pivots else POLY_ONE


def _clear_columns(m) -> tuple[list[list[PolyZ]], list[PolyZ]]:
    """Scale each column of a square Scalar matrix by the lcm of its
    denominators.

    Returns the polynomial matrix and the column factors.  A column of
    polynomials has the factor ``POLY_ONE`` and keeps its numerators.
    """
    _square(m)
    factors = []
    for j in range(len(m)):
        lcm = POLY_ONE
        for row in m:
            den = row[j].den
            if den is not POLY_ONE:
                lcm = den if lcm is POLY_ONE else lcm * den.exact_div(PolyZ.gcd(lcm, den))
        factors.append(lcm)
    rows = [[_cleared(e, f) for e, f in zip(row, factors)] for row in m]
    return rows, factors


def _cleared(e: Scalar, f: PolyZ) -> PolyZ:
    """The polynomial e * f, for f a multiple of the denominator of e."""
    if f is POLY_ONE:
        return e.num
    return e.num * (f if e.den is POLY_ONE else f.exact_div(e.den))


def _times(a: PolyZ, b: PolyZ) -> PolyZ:
    """a * b for column factors; a product of ones stays the one POLY_ONE."""
    if b is POLY_ONE:
        return a
    return b if a is POLY_ONE else a * b


def det_scalar(rows) -> Scalar:
    """Exact determinant of a square Scalar matrix.

    Each column is cleared to polynomial form by its denominator lcm, and
    the product of the column factors is divided back out of the
    fraction-free result.
    """
    poly_rows, factors = _clear_columns([[Scalar._coerce(e) for e in row] for row in rows])
    cleared = POLY_ONE
    for f in factors:
        cleared = _times(cleared, f)
    return Scalar(det_bareiss(poly_rows), cleared)


def hankel_matrix(seq, n: int):
    """The (n+1) x (n+1) matrix with entry (i, j) = a_{i+j}."""
    terms = _terms(seq)
    needed = 2 * n + 1
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms, have {len(terms)}")
    return tuple(tuple(terms[i + j] for j in range(n + 1)) for i in range(n + 1))


def hankel_det(seq, n: int) -> Scalar:
    """Hankel determinant h_n = det(a_{i+j}), i, j = 0..n."""
    return det_scalar(hankel_matrix(seq, n))


def hankel_transform(seq, nmax: int) -> list[Scalar]:
    """The sequence h_0..h_nmax of Hankel determinants.

    One elimination of the (nmax+1) x (nmax+1) Hankel matrix, cleared
    column-wise to polynomial form, gives them all: its k-th pivot is the
    leading minor h_k times the first k+1 column factors.  A vanishing
    pivot makes that h_k zero, and the larger sizes are then computed one
    by one by ``hankel_det``, whose row swaps get past the zero pivot.
    """
    terms = _terms(seq)
    needed = 2 * nmax + 1
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms, have {len(terms)}")
    poly_rows, factors = _clear_columns(hankel_matrix(terms, nmax))
    out = []
    cleared = POLY_ONE
    for pivot, f in zip(_pivots(poly_rows, swap_rows=False), factors):
        cleared = _times(cleared, f)
        out.append(Scalar(pivot, cleared))
    return out + [hankel_det(terms, n) for n in range(len(out), nmax + 1)]


def hankel_from_betas(params: JacobiParams, nmax: int) -> list[Scalar]:
    """Closed form h_n = a0^{n+1} prod_{k=1..n} beta_k^{n-k+1}.

    The a0 exponent n+1 (rather than n) is forced by h_0 = a0 and is
    validated against brute-force determinants in the test suite; for
    a0 = 1 the two conventions coincide.
    """
    if nmax > len(params.beta):
        raise ValueError(
            f"need {nmax} betas, have {len(params.beta)}"
        )
    out = []
    for n in range(nmax + 1):
        h = params.a0 ** (n + 1)
        for k in range(1, n + 1):
            h = h * params.beta[k - 1] ** (n - k + 1)
        out.append(h)
    return out


def binomial_transform(seq) -> MomentSequence:
    """b_n = sum_k C(n, k) a_k, same length as the input."""
    terms = _terms(seq)
    out = []
    for n in range(len(terms)):
        acc = ZERO
        for k in range(n + 1):
            acc = acc + terms[k] * comb(n, k)
        out.append(acc)
    return MomentSequence(tuple(out))
