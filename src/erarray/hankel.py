"""Hankel matrices, exact determinants and the Hankel transform.

The Hankel transform reads h_k = s_0 s_1 ... s_k off the Chebyshev tableau
of the sequence (``orthopoly._chebyshev``), s_k = L(p_k^2) for the monic
orthogonal polynomials p_k of the moment functional, so it needs O(n^2)
ring operations and no determinant.  The tableau's rows are integer
polynomials, each packed into one int, over one denominator each, so its
entries take no gcd, and on polynomial moments neither do its few
divisions per step,
which are exact.  The walk is shared with
``orthopoly.jacobi_from_moments`` through the one-slot memo of
``_chebyshev``, so the transform and the recovery of one sequence walk its
tableau once.  After the first zero s_k the larger determinants come one
by one from ``hankel_det``.  Determinants use Bareiss
fraction-free elimination, which keeps every intermediate value in Q[z] via
exact divisions; each column of a Scalar matrix is first cleared to
polynomial form by ``scalars._clear_denominators``, and the product of the
column factors is divided back out.  Sequence arguments are read by
``orthopoly._terms`` and matrix entries coerced by ``scalars._as_scalar``.
The tests check these routes against one-elimination and per-size
determinant oracles, fraction-field Gaussian elimination and cofactor
expansion.
"""

from __future__ import annotations

from math import comb, prod

from .orthopoly import JacobiParams, MomentSequence, _chebyshev, _terms
from .scalars import ONE, POLY_ONE, POLY_ZERO, PolyZ, Scalar, _as_scalar, _clear_denominators, dot


def det_bareiss(rows) -> PolyZ:
    """Fraction-free determinant of a square PolyZ matrix, by one-step
    Bareiss elimination of a copy of it.

    Every division by the previous pivot is exact in Q[z] (Bareiss, Math.
    Comp. 22, 1968), so the last pivot is the determinant.  A vanishing
    pivot is passed by swapping up, negated, a row below with a nonzero
    entry in the pivot column, which keeps the determinant; when there is
    no such row the determinant is zero.
    """
    m = [list(row) for row in rows]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    pivot = POLY_ONE
    for k in range(size):
        if m[k][k].is_zero:
            i = next((i for i in range(k + 1, size) if not m[i][k].is_zero), None)
            if i is None:
                return POLY_ZERO
            m[k], m[i] = [-e for e in m[i]], m[k]
        prev, pivot = pivot, m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
    return pivot


def det_scalar(rows) -> Scalar:
    """Exact determinant of a square Scalar matrix.

    Each column is scaled by the lcm of its denominators
    (``scalars._clear_denominators``; a column of polynomials keeps its
    numerators, with the factor ``POLY_ONE``), and the product of the
    column factors is divided back out of the fraction-free result.
    """
    m = [[_as_scalar(e, "a matrix entry") for e in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant needs a square matrix")
    columns = [_clear_denominators([row[j] for row in m]) for j in range(len(m))]
    poly_rows = list(zip(*(nums for _, nums in columns)))
    return Scalar(det_bareiss(poly_rows), prod((f for f, _ in columns), start=POLY_ONE))


def hankel_matrix(seq, n: int):
    """The (n+1) x (n+1) matrix with entry (i, j) = a_{i+j}."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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

    h_k is the running product s_0 s_1 ... s_k of the diagonal of the
    Chebyshev tableau of a_0..a_{2 nmax}.  A zero s_k makes h_k zero and
    ends the tableau; the larger sizes are then computed one by one by
    ``hankel_det``, whose row swaps get past the zero pivot.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    terms = _terms(seq)
    needed = 2 * nmax + 1
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms, have {len(terms)}")
    terms = terms[:needed]
    out = []
    h = ONE
    for s, _, _ in _chebyshev(terms):
        h = h * s
        out.append(h)
    return out + [hankel_det(terms, n) for n in range(len(out), nmax + 1)]


def hankel_from_betas(params: JacobiParams, nmax: int) -> list[Scalar]:
    """Closed form h_n = a0^{n+1} prod_{k=1..n} beta_k^{n-k+1}.

    It is built in Heilermann's ratio form, as the running product
    h_n = h_{n-1} a0 B_n with B_n = B_{n-1} beta_n, so O(n) products.  The
    a0 exponent n+1 (rather than n) is forced by h_0 = a0 and is
    validated against brute-force determinants in the test suite; for
    a0 = 1 the two conventions coincide.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if nmax > len(params.beta):
        raise ValueError(
            f"need {nmax} betas, have {len(params.beta)}"
        )
    a0 = h = params.a0
    b = ONE
    out = [h]
    for beta in params.beta[:nmax]:
        b = b * beta
        h = h * a0 * b
        out.append(h)
    return out


def binomial_transform(seq) -> MomentSequence:
    """b_n = sum_k C(n, k) a_k, same length as the input; each b_n is one
    ``dot``."""
    terms = _terms(seq)
    return MomentSequence(tuple(dot((terms[k], Scalar(comb(n, k))) for k in range(n + 1))
                                for n in range(len(terms))))
