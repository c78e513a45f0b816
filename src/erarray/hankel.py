"""Hankel matrices, exact determinants and the Hankel transform.

Determinants of polynomial matrices use Bareiss fraction-free elimination,
which keeps every intermediate value in Q[z] via exact divisions.  Matrices
with genuine rational-function entries are cleared column-wise to polynomial
form first (tracking the cleared factor).  The tests check this one route
against fraction-field Gaussian elimination and cofactor expansion.
"""

from __future__ import annotations

from math import comb

from .orthopoly import JacobiParams, MomentSequence
from .scalars import ONE, POLY_ONE, ZERO, PolyZ, Scalar


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


def det_bareiss(rows) -> PolyZ:
    """Fraction-free determinant of a square PolyZ matrix.

    One-step Bareiss: every division by the previous pivot is exact in
    Q[z].  Vanishing pivots are handled by row swaps (sign tracked); a
    fully zero pivot column means the determinant is zero.
    """
    m = [list(row) for row in rows]
    size = len(m)
    for row in m:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
    if size == 0:
        return POLY_ONE
    sign = 1
    prev = POLY_ONE
    for k in range(size - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, size):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return PolyZ()
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = PolyZ()
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def det_scalar(rows) -> Scalar:
    """Exact determinant of a square Scalar matrix, input-driven.

    Polynomial entries go straight to Bareiss; otherwise each column is
    cleared to polynomial form by its denominator lcm and the cleared
    factor divided back out of the fraction-free result.
    """
    m = [[Scalar._coerce(e) for e in row] for row in rows]
    size = len(m)
    if all(e.is_polynomial for row in m for e in row):
        return Scalar(det_bareiss([[e.num for e in row] for row in m]))
    cleared = ONE
    cols = []
    for j in range(size):
        lcm = POLY_ONE
        for i in range(size):
            den = m[i][j].den
            lcm = lcm * den.exact_div(PolyZ.gcd(lcm, den))
        cleared = cleared * Scalar(lcm)
        cols.append(lcm)
    poly_rows = [
        [m[i][j].num * cols[j].exact_div(m[i][j].den) for j in range(size)]
        for i in range(size)
    ]
    return Scalar(det_bareiss(poly_rows)) / cleared


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
    """The sequence h_0..h_nmax of Hankel determinants."""
    terms = _terms(seq)
    needed = 2 * nmax + 1
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms, have {len(terms)}")
    return [hankel_det(terms, n) for n in range(nmax + 1)]


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
