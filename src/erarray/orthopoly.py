"""Orthogonal-polynomial machinery over Q(z).

Connects three-term recurrence data (Jacobi parameters) with moment
sequences and J-fraction expansions, plus the exact recovery of recurrence
coefficients from raw moments.  Both tableaux run on Python ints, each
entry and each multiplier an integer polynomial packed into one int at
z = 2^w (``scalars._pack``).  The Stieltjes tableau of
``moments_from_jacobi`` divides nothing: the recurrence data is taken
into Z[z] by ``scalars._clear_denominators`` and
``scalars._clear_contents``, and one slot width, proved by the same
tableau on 1-norms, serves the whole tableau.  The Chebyshev tableau of
``_walk`` divides, a few times per step, so it holds each row over one
integer and one polynomial denominator and carries a bound on the
coefficients of its two live rows: the width is widened, and the rows
repacked, only when that bound, measured again from the packed rows
(``scalars._packed_bound``), passes it, and the integer denominator is
trimmed by a gcd taken on the packed entries first.  Its step runs on
the ``PolyZ`` numerators and denominators of its values, through the
kernels of the ``Scalar`` operators (``scalars._quotient`` and
``scalars._sum``), and builds a Scalar only for each s_k, alpha_k and
beta_k it yields.  On polynomial moments its divisions are exact and take
no gcd.
``invert_lower_triangular`` is one ``scalars.solve_lower`` against the
identity.  Values enter Q(z) through ``scalars._as_scalar``; every
sequence argument, here and in ``hankel``, goes through ``_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd, lcm

from .scalars import (
    ONE,
    POLY_ONE,
    POLY_ZERO,
    ZERO,
    Scalar,
    _as_scalar,
    _canonical,
    _clear_contents,
    _clear_denominators,
    _cofactors,
    _normal,
    _pack,
    _packed_bound,
    _polynomial,
    _quotient,
    _sum,
    _unpack,
    solve_lower,
)
from .series import Series


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


def _terms(seq) -> tuple[Scalar, ...]:
    """The terms of a MomentSequence, or of any iterable as Scalars."""
    if isinstance(seq, MomentSequence):
        return seq.terms
    return tuple(_as_scalar(t, "a sequence term") for t in seq)


def invert_lower_triangular(rows):
    """Exact inverse of a lower-triangular Scalar matrix: one forward
    substitution against the identity."""
    size = len(rows)
    unit = [tuple(ONE if k == m else ZERO for k in range(size)) for m in range(size)]
    return tuple(solve_lower(rows, unit))


def jfraction_expand(params: JacobiParams, order: int) -> Series:
    """Ordinary generating function of the moments, from the J-fraction.

    Its coefficients are the moments a_0..a_order, so it is the Stieltjes
    tableau of ``moments_from_jacobi`` read as a series.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > params.depth:
        raise ValueError(f"insufficient parameters: order {order} > depth {params.depth}")
    return Series(moments_from_jacobi(params, order).terms)


def _width(bound: int) -> int:
    """The slot width of the walk's rows for coefficients of absolute value
    up to ``bound``: the least width that holds them, bound.bit_length() + 1,
    and an eighth more, at least 16 bits, so that the bound, which grows
    every step, passes it only every few steps."""
    need = bound.bit_length() + 1
    return need + max(16, need >> 3)


def moments_from_jacobi(params: JacobiParams, count: int) -> MomentSequence:
    """Moments a_0..a_count, read off the Stieltjes tableau of the J-fraction.

    Row m of the tableau is row m of the array A with A[m+1] = A[m] P, P the
    tridiagonal matrix with diagonal alpha_k, subdiagonal beta_k and unit
    superdiagonal:  A[m][k] = A[m-1][k-1] + alpha_k A[m-1][k]
    + beta_{k+1} A[m-1][k+1], and a_m = a0 A[m][0].  Only the entries
    k <= min(m, count - m), which still reach column 0 by row count, are
    kept: O(count^2) ring operations and no division.

    The rows run in Z[z], packed into ints.  With d the lcm of the
    denominators of the alphas and betas used and e the least integer that
    clears the rational contents left, D = e d, D alpha_k and D beta_{k+1}
    are integer polynomials, and row m holds R[m] = D^m A[m].  Each is
    evaluated once at z = 2^w (Kronecker substitution), so every entry
    D R[m-1][k-1] + (D alpha_k) R[m-1][k] + (D beta_{k+1}) R[m-1][k+1] is
    three int products, and only the heads R[m][0] are unpacked.  The slot
    width is proved, not guessed: the same tableau over the 1-norms of D,
    D alpha_k and D beta_{k+1} bounds the 1-norm, hence every coefficient,
    of each head (the 1-norm is submultiplicative), so w = bits(largest
    head bound) + 1 holds every signed coefficient.  The tests compare it
    with the chained tableau and the one-``dot``-per-entry tableau it
    replaced, with the inverse of the monic coefficient array and with
    the bottom-up expansion of the J-fraction.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > params.depth:
        raise ValueError(
            f"insufficient parameters: count {count} > depth {params.depth}"
        )
    half = count // 2
    d, nums = _clear_denominators(params.alpha[:half + 1] + params.beta[:half])
    e, ints = _clear_contents((d,) + nums)
    norms = [sum(map(abs, c)) for c in ints]
    w = max(_stieltjes_heads(norms, half, count), default=0).bit_length() + 1
    heads = _stieltjes_heads([_pack(c, w) for c in ints], half, count)
    a0 = params.a0
    terms = [a0]
    dm, em = a0.den, 1
    for head in heads:
        dm = dm * d
        em *= e
        terms.append(Scalar(a0.num * _normal(_unpack(head, w), 1, em), dm))
    return MomentSequence(tuple(terms))


def _stieltjes_heads(values, half: int, count: int) -> list:
    """The heads R[1][0] .. R[count][0] of the Stieltjes tableau over ints.

    ``values`` is [D, D alpha_0 .. D alpha_half, D beta_1 .. D beta_half],
    each an int, and R[0] = [1],
    R[m][k] = D R[m-1][k-1] + (D alpha_k) R[m-1][k] + (D beta_{k+1}) R[m-1][k+1],
    for k <= min(m, count - m).  Run on packed polynomials it gives the
    packed heads; run on their 1-norms, a bound on each head's 1-norm.
    """
    shift, alpha, beta = values[0], values[1:half + 2], values[half + 2:]
    row = [1]
    heads = []
    for m in range(1, count + 1):
        last = len(row) - 1
        nxt = []
        for k in range(min(m, count - m) + 1):
            v = shift * row[k - 1] if k else 0
            if k <= last:
                v += alpha[k] * row[k]
            if k < last:
                v += beta[k] * row[k + 1]
            nxt.append(v)
        row = nxt
        heads.append(row[0])
    return heads


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
    """Recover (alpha, beta) from raw moments by the Chebyshev algorithm.

    The walk is ``_chebyshev``, shared through its one-slot memo with
    ``hankel.hankel_transform`` of the same terms, so recovering the Jacobi
    data of a sequence whose Hankel transform was just taken walks no
    tableau.  Recovery stops when the moments run out or some s_k, k >= 1,
    vanishes (``finite_support``).
    """
    terms = _terms(moments)
    if not terms:
        raise ValueError("jacobi recovery needs at least one moment")
    if terms[0].is_zero:
        raise ValueError("jacobi recovery needs a_0 != 0")
    alpha: list[Scalar] = []
    beta: list[Scalar] = []
    finite_support = False
    for s, a, b in _chebyshev(terms):
        if a is None:
            finite_support = s.is_zero
            break
        alpha.append(a)
        if b is not None:
            beta.append(b)
    params = JacobiParams(tuple(alpha), tuple(beta), a0=terms[0])
    return JacobiRecovery(params=params, depth=len(alpha), finite_support=finite_support)


# The last walk: (terms, walk).  One slot, read and replaced as one tuple,
# so callers racing on it can at worst walk again, never get another
# sequence's walk.
_last_walk: tuple = ((), ())


def _chebyshev(terms: tuple[Scalar, ...]) -> tuple:
    """The walk of the Chebyshev tableau of the moments ``terms``, as a
    tuple of (s_k, alpha_k, beta_k) triples (see ``_walk``).

    The last walk is kept in one module-level slot, so the Hankel transform
    and the Jacobi recovery of one sequence walk its tableau once.  Scalars
    are canonical, so terms ``==`` to the stored ones have the same walk.
    The slot holds only the last sequence: it serves calls on the same
    sequence in a row and nothing older.
    """
    global _last_walk
    last_terms, walk = _last_walk
    if last_terms != terms:
        walk = tuple(_walk(terms))
        _last_walk = (terms, walk)
    return walk


def _walk(terms):
    """Walk the Chebyshev tableau of the moments ``terms``.

    Row k of the tableau holds sigma_k(l) = L(p_k x^l) for the moment
    functional L(x^l) = a_l and the monic orthogonal polynomials p_k, so
    sigma_0(l) = a_l and

        sigma_k(l) = sigma_{k-1}(l+1) - alpha_{k-1} sigma_{k-1}(l)
                     - beta_{k-1} sigma_{k-2}(l),

    and with s_k = sigma_k(k) = L(p_k^2),

        alpha_k = sigma_k(k+1)/s_k - sigma_{k-1}(k)/s_{k-1},
        beta_k = s_k/s_{k-1}

    (Gautschi, "On generating orthogonal polynomials", 1982).  That is
    O(n^2) entries and a few divisions per step.

    Row k is held on ints: sigma_k(l) = V_k(l) / (e_k D_k), V_k(l) an
    integer polynomial, e_k > 0 one integer and D_k one monic polynomial,
    the one ``POLY_ONE`` while the row is polynomial.  Row 0 is the terms
    over the lcm of their denominators (``_clear_denominators``) and the
    lcm of the contents left (``_clear_contents``).  With
    alpha_k = an/ad, beta_k = bn/bd, X = ad D_k, Y = bd D_{k-1} and
    g = gcd(X, Y), row k+1 is taken over D_{k+1} = X (Y/g), with the
    multipliers

        m_next = ad (Y/g),  m_row = -an (Y/g),  m_prev = -bn (X/g).

    With E = lcm(e_k, e_{k-1}) and f the lcm of the denominators of the
    contents of m_next E/e_k, m_row E/e_k and m_prev E/e_{k-1}, these
    three times f are integer polynomials mu_next, mu_row and mu_prev,
    each the primitive part of ad (Y/g), an (Y/g) or bn (X/g) times one
    integer, and

        V_{k+1}(l) = mu_next V_k(l+1) + mu_row V_k(l) + mu_prev V_{k-1}(l)

    over e_{k+1} = f E.  D_{k+1} may hold more than the lcm of the row's
    denominators and is not trimmed.

    Each V_k(l) is packed into one int, its value at z = 2^w (Kronecker
    substitution), with one slot width w for the two live rows, so an
    entry is three int products, by the packed multipliers, and two sums.
    Only V_k(k) and V_k(k+1) are unpacked, for s_k and the ratio
    V_k(k+1)/V_k(k) (e_k D_k cancels).  The width is proved:
    B_k bounds every coefficient of row k, so

        B_{k+1} = (|mu_next|_1 + |mu_row|_1) B_k + |mu_prev|_1 B_{k-1}

    bounds row k+1 (the 1-norm bounds a product's coefficients), and
    every slot holds its signed digit while B_{k+1} < 2^(w-1).  A step
    whose bound passes that first measures B_k and B_{k-1} again, since
    the walk's cancellation leaves the carried bounds loose; it measures
    them on the packed rows (``scalars._packed_bound``, linear in their
    length) rather than on their digits, which ``_unpack`` reads in
    quadratic time, and repacks the two rows at a wider ``_width`` only
    if the measured bound still passes.
    When e_{k+1} != 1 the gcd of e_{k+1} with every packed entry comes
    first: the gcd t of e_{k+1} with every coefficient divides it, so a
    gcd of 1 leaves the row packed, and only a larger one unpacks the row
    to find t, divide it out and measure B_{k+1} again.

    The step's algebra runs on the numerators and denominators of its
    values, not on Scalars: s_k, the ratio V_k(k+1)/V_k(k) and beta_k are
    ``scalars._quotient`` of the parts, an exact quotient first and
    Henrici's ``_product`` only when it fails, and alpha_k is a difference
    of ratios (a ``PolyZ`` sum, or ``scalars._sum`` over two
    denominators when either is not ``POLY_ONE``); a Scalar is built
    (``_canonical``) only for each s_k, alpha_k and beta_k yielded.  On a
    polynomial sequence every D_k is ``POLY_ONE``, which the ``PolyZ``
    product keeps as its identity, so s_k needs no division, the step
    takes no polynomial gcd, and both divisions are exact.  On rational
    data one gcd per step gives g, beside those of the quotients and the
    difference that are not exact.  The integer rows this replaced, with
    their step on the Scalar operators, are kept as
    ``walk_by_integer_rows`` in tests/oracles.py.

    Yields (s_k, alpha_k, beta_k) for k = 0, 1, ... while 2k <= top, the
    last index of ``terms``; beta_0 is None.  The walk ends with a zero s_k
    or with the s_k whose alpha_k the moments no longer reach; that last
    triple has alpha_k and beta_k None.  So the running products of the
    s_k are the Hankel determinants h_k = s_0 s_1 ... s_k.
    """
    top = len(terms) - 1
    den, nums = _clear_denominators(terms)
    e, ints = _clear_contents(nums)
    bound = max(map(abs, chain.from_iterable(ints)), default=0)
    w = _width(bound)
    row = [_pack(v, w) for v in ints]
    # Rows k-1 and k, indexed by l, and their coefficient bounds; only
    # l >= k is used.
    prev, e_prev, bound_prev = [0] * len(terms), 1, 0
    den_prev = POLY_ONE
    # The negated ratio V_{k-1}(k)/V_{k-1}(k-1) as (num, den); 0 at k = 0.
    s_prev = b = None
    neg_ratio = POLY_ZERO, POLY_ONE
    for k in range(top // 2 + 1):
        n = _normal(_unpack(row[k], w), 1, e)
        s = _canonical(*_quotient(n, POLY_ONE, den, POLY_ONE))
        if s.is_zero or 2 * k + 1 > top:
            yield s, None, None
            return
        rn, rd = _quotient(_normal(_unpack(row[k + 1], w), 1, e), POLY_ONE, n, POLY_ONE)
        if rd is POLY_ONE and neg_ratio[1] is POLY_ONE:
            a = _polynomial(rn + neg_ratio[0])
        else:
            a = _canonical(*_sum(rn, rd, *neg_ratio))
        if k:
            b = _canonical(*_quotient(s.num, s.den, s_prev.num, s_prev.den))
        yield s, a, b
        x = a.den * den
        y = b.den * den_prev if k else POLY_ONE
        # lcm(X, Y) = X (Y/g); a unit X or Y needs no gcd.
        if x is POLY_ONE or y is POLY_ONE:
            xg, yg = x, y
        else:
            xg, yg, _ = _cofactors(x, y)
        common = lcm(e, e_prev)
        u = common // e
        # Each multiplier is p t f, p one of the products below with content
        # c/d, t its integer scale and sign, and f the lcm of the
        # denominators d/gcd(t, d) of the contents c t/d: the primitive part
        # of p times the integer m = c t f/d.
        parts = ((a.den * yg, u), (a.num * yg, -u),
                 (b.num * xg, -(common // e_prev)) if k else (POLY_ZERO, 0))
        f = lcm(*[p._den // gcd(t, p._den) for p, t in parts])
        mus = [(p._prim, p._num * t * f // p._den) for p, t in parts]
        den_prev, den = den, x * yg
        # B_{k+1} from B_k and B_{k-1} by the 1-norms of the multipliers.
        norms = [abs(m) * sum(map(abs, prim)) for prim, m in mus]
        grow, grow_prev = norms[0] + norms[1], norms[2]
        bound_next = grow * bound + grow_prev * bound_prev
        if bound_next.bit_length() >= w:
            # Cancellation leaves the carried bounds loose: measure the
            # entries the step reads before widening.
            live = slice(k + 1, top - k + 1)
            bound = _packed_bound(row[live], w)
            bound_prev = _packed_bound(prev[live], w)
            bound_next = grow * bound + grow_prev * bound_prev
            if bound_next.bit_length() >= w:
                wider = _width(bound_next)
                row[live] = [_pack(_unpack(v, w), wider) for v in row[live]]
                prev[live] = [_pack(_unpack(v, w), wider) for v in prev[live]]
                w = wider
        m_next, m_row, m_prev = [m * _pack(prim, w) for prim, m in mus]
        nxt = [0] * (k + 1) + [m_next * row[l + 1] + m_row * row[l] + m_prev * prev[l]
                               for l in range(k + 1, top - k)]
        e_prev, e = e, f * common
        if e != 1:
            # The gcd of e with every coefficient divides this one.
            g = gcd(e, *nxt)
            if g != 1:
                digits = list(chain.from_iterable(_unpack(v, w) for v in nxt))
                g = gcd(g, *digits)
                bound_next = max(map(abs, digits), default=0) // g
                if g != 1:
                    e //= g
                    nxt = [v // g for v in nxt]
        prev, row = row, nxt
        bound_prev, bound = bound, bound_next
        s_prev, neg_ratio = s, (-rn, rd)
