"""Orthogonal-polynomial machinery over Q(z).

Connects three-term recurrence data (Jacobi parameters) with monic
coefficient arrays, moment sequences and J-fraction expansions, plus the
exact recovery of recurrence coefficients from raw moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, ZERO, Scalar
from .series import Series


def _as_scalar(value) -> Scalar:
    s = Scalar._coerce(value)
    if s is None:
        raise TypeError(f"cannot use {type(value).__name__} as a scalar")
    return s


@dataclass(frozen=True)
class JacobiParams:
    """Recurrence data (alpha_0..alpha_{M-1}, beta_1..beta_{M-1}) plus the
    leading moment a0 of the associated J-fraction.

    The orthogonality theory (and the Hankel product formula) assume every
    beta_k is nonzero; zero betas are still representable because degenerate
    recurrences such as p_n(x) = x^n are legitimate inputs elsewhere.
    """

    alpha: tuple[Scalar, ...]
    beta: tuple[Scalar, ...]
    a0: Scalar = field(default_factory=lambda: ONE)

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(_as_scalar(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(_as_scalar(b) for b in self.beta))
        object.__setattr__(self, "a0", _as_scalar(self.a0))
        if len(self.beta) != max(len(self.alpha) - 1, 0):
            raise ValueError(
                f"need |beta| = |alpha| - 1, got {len(self.beta)} and {len(self.alpha)}"
            )

    @property
    def depth(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class MomentSequence:
    """Scalar moments a_0, a_1, ...; a_0 must be nonzero for Jacobi recovery."""

    terms: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(_as_scalar(t) for t in self.terms))
        if not self.terms:
            raise ValueError("a moment sequence needs at least one term")

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, k: int) -> Scalar:
        return self.terms[k]


def coeff_array_from_jacobi(params: JacobiParams, order: int):
    """Rows 0..order of coefficients of the monic polynomials p_n(x).

    p_{n+1}(x) = (x - alpha_n) p_n(x) - beta_n p_{n-1}(x), p_0 = 1.
    """
    if order > params.depth:
        raise ValueError(
            f"insufficient parameters: order {order} needs {order} alphas, "
            f"have {params.depth}"
        )
    size = order + 1
    rows = [[ZERO] * size for _ in range(size)]
    rows[0][0] = ONE
    prev: list[Scalar] = []
    cur = [ONE]
    for n in range(order):
        shifted = [ZERO] + cur
        nxt = [shifted[k] - params.alpha[n] * (cur[k] if k < len(cur) else ZERO)
               for k in range(n + 2)]
        if n >= 1:
            for k in range(len(prev)):
                nxt[k] = nxt[k] - params.beta[n - 1] * prev[k]
        prev, cur = cur, nxt
        for k in range(n + 2):
            rows[n + 1][k] = cur[k]
    return tuple(tuple(r) for r in rows)


def invert_lower_triangular(rows):
    """Exact inverse of a lower-triangular Scalar matrix by forward substitution."""
    size = len(rows)
    inv = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, size):
            if i == j:
                acc = ONE
            else:
                acc = ZERO
                for k in range(j, i):
                    if not rows[i][k].is_zero and not inv[k][j].is_zero:
                        acc = acc - rows[i][k] * inv[k][j]
            if rows[i][i].is_zero:
                raise ZeroDivisionError(f"singular diagonal entry at ({i}, {i})")
            inv[i][j] = acc / rows[i][i]
    return tuple(tuple(r) for r in inv)


def jfraction_expand(params: JacobiParams, order: int) -> Series:
    """Ordinary generating function of the moments, from the J-fraction.

    Expanded bottom-up: the innermost level is 1 - alpha_{M-1} x, and level j
    wraps 1 - alpha_j x - beta_{j+1} x^2 / (next level).
    """
    depth = params.depth
    if order > depth:
        raise ValueError(f"insufficient parameters: order {order} > depth {depth}")
    if depth == 0:
        return Series.constant(params.a0, order)
    x = Series.x(order) if order >= 1 else Series.zero(0)
    level = Series.one(order) - x * params.alpha[depth - 1]
    for j in range(depth - 2, -1, -1):
        level = Series.one(order) - x * params.alpha[j] - (
            (x * x) * params.beta[j] / level
        )
    return Series.constant(params.a0, order) / level


def moments_from_jacobi(params: JacobiParams, count: int) -> MomentSequence:
    """Moments a_0..a_count, read off the Stieltjes tableau of the J-fraction.

    Row m of the tableau is row m of the array A with A[m+1] = A[m] P, P the
    tridiagonal matrix with diagonal alpha_k, subdiagonal beta_k and unit
    superdiagonal:  A[m][k] = A[m-1][k-1] + alpha_k A[m-1][k]
    + beta_{k+1} A[m-1][k+1], and a_m = a0 A[m][0].  Only the entries
    k <= min(m, count - m), which still reach column 0 by row count, are
    kept: O(count^2) ring operations and no division.  The tests compare it
    with the inverse of the monic coefficient array and with
    ``jfraction_expand``.
    """
    if count > params.depth:
        raise ValueError(
            f"insufficient parameters: count {count} > depth {params.depth}"
        )
    alpha, beta = params.alpha, params.beta
    row = [ONE]
    terms = [params.a0]
    for m in range(1, count + 1):
        nxt = []
        for k in range(min(m, count - m) + 1):
            acc = row[k - 1] if k >= 1 else ZERO
            if k < len(row):
                acc = acc + alpha[k] * row[k]
            if k + 1 < len(row):
                acc = acc + beta[k] * row[k + 1]
            nxt.append(acc)
        row = nxt
        terms.append(params.a0 * row[0])
    return MomentSequence(tuple(terms))


@dataclass(frozen=True)
class JacobiRecovery:
    """Result of moment-to-recurrence recovery.

    ``depth`` counts recovered alphas.  ``finite_support`` marks legitimate
    early termination (some beta_k = 0, a finitely supported functional),
    as opposed to simply running out of moments.
    """

    params: JacobiParams
    depth: int
    finite_support: bool


def jacobi_from_moments(moments) -> JacobiRecovery:
    """Recover (alpha, beta) from raw moments by the exact Stieltjes procedure.

    Builds the monic orthogonal polynomials against the moment functional
    L(x^k) = a_k, with alpha_n = L(x p_n^2)/L(p_n^2) and
    beta_n = L(p_n^2)/L(p_{n-1}^2); stops when moments run out or a beta
    vanishes.
    """
    terms = moments.terms if isinstance(moments, MomentSequence) else tuple(
        _as_scalar(t) for t in moments
    )
    if terms[0].is_zero:
        raise ValueError("jacobi recovery needs a_0 != 0")
    top = len(terms) - 1

    def functional(u: list[Scalar], v: list[Scalar]) -> Scalar:
        acc = ZERO
        for i, ui in enumerate(u):
            if ui.is_zero:
                continue
            for j, vj in enumerate(v):
                if not vj.is_zero:
                    acc = acc + ui * vj * terms[i + j]
        return acc

    def x_shift(u: list[Scalar]) -> list[Scalar]:
        return [ZERO] + u

    alpha: list[Scalar] = []
    beta: list[Scalar] = []
    finite_support = False
    prev: list[Scalar] = []
    cur: list[Scalar] = [ONE]
    norms: list[Scalar] = []
    n = 0
    while True:
        if 2 * n > top:
            break
        s_n = functional(cur, cur)
        if n >= 1 and s_n.is_zero:
            finite_support = True
            break
        if 2 * n + 1 > top:
            break
        a_n = functional(x_shift(cur), cur) / s_n
        if n >= 1:
            beta.append(s_n / norms[-1])
        alpha.append(a_n)
        norms.append(s_n)
        nxt = [c for c in x_shift(cur)]
        for k, c in enumerate(cur):
            nxt[k] = nxt[k] - a_n * c
        if n >= 1:
            for k, c in enumerate(prev):
                nxt[k] = nxt[k] - beta[-1] * c
        prev, cur = cur, nxt
        n += 1
    params = JacobiParams(tuple(alpha), tuple(beta), a0=terms[0])
    return JacobiRecovery(params=params, depth=len(alpha), finite_support=finite_support)
