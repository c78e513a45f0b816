from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import erarray
from erarray import orthopoly, scalars
from erarray.expr import parse_scalar
from erarray.hankel import hankel_transform
from erarray.orthopoly import (
    JacobiParams,
    MomentSequence,
    invert_lower_triangular,
    jacobi_from_moments,
    jfraction_expand,
    moments_from_jacobi,
)
from erarray.riordan import er_build, er_inverse, extract_jacobi, production_from_pair
from erarray.scalars import ONE, ZERO, PolyZ, Scalar, Z
from erarray.sequences import bell_poly, eulerian_poly, named_pair

import oracles

from oracles import (
    ORACLE_SETTINGS,
    coeff_array_from_jacobi,
    hankel_transform_by_elimination,
    jacobi_by_stieltjes,
    jfraction_by_levels,
    matrix_product,
    moments_by_chained_tableau,
    moments_by_dot_tableau,
    moments_by_inverse,
    poly_scalars,
    random_scalar,
    rational_leads,
    rational_scalars,
    walk_by_chained_tableau,
    walk_by_dot_tableau,
    walk_by_integer_rows,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Hankel  # noqa: E402


def thm1_params(depth):
    return JacobiParams(
        alpha=tuple(Z + n for n in range(depth)),
        beta=tuple(Z * n for n in range(1, depth)),
    )


def thm2_params(depth):
    return JacobiParams(
        alpha=tuple(Z * (n + 1) + n for n in range(depth)),
        beta=tuple(Z * (n * n) for n in range(1, depth)),
    )


def laguerre_params(depth):
    return JacobiParams(
        alpha=tuple(Scalar(2 * n + 1) for n in range(depth)),
        beta=tuple(Scalar(n * n) for n in range(1, depth)),
    )


class TestCoeffArray:
    def test_matches_thm1_inverse(self):
        n = 6
        rows = coeff_array_from_jacobi(thm1_params(n), n)
        inv = er_inverse(er_build(*named_pair("thm1", n))).entries
        assert rows == inv

    def test_matches_charlier_pair(self):
        # The tridiagonal production data alpha_n = -(n+1), beta_n = n comes
        # from the inverse of [e^x, log(1/(1-x))]; the coefficient array it
        # generates is the inverse of that originating array, i.e. the
        # Charlier-type array itself.
        n = 6
        params = JacobiParams(
            alpha=tuple(Scalar(-(k + 1)) for k in range(n)),
            beta=tuple(Scalar(k) for k in range(1, n)),
        )
        rows = coeff_array_from_jacobi(params, n)
        charlier = er_build(*named_pair("charlier", n))
        assert rows == charlier.entries
        originating = er_inverse(charlier)
        assert extract_jacobi(production_from_pair(originating)) == params
        assert rows == er_inverse(originating).entries

    def test_zero_recurrence_gives_powers(self):
        params = JacobiParams(
            alpha=(ZERO,) * 5, beta=(ZERO,) * 4
        )
        rows = coeff_array_from_jacobi(params, 5)
        for n in range(6):
            for k in range(6):
                assert rows[n][k] == (ONE if n == k else ZERO)

    def test_insufficient_parameters(self):
        with pytest.raises(ValueError, match="insufficient"):
            coeff_array_from_jacobi(thm1_params(3), 4)


class TestMoments:
    def test_thm1_gives_bell_polynomials(self):
        got = moments_from_jacobi(thm1_params(6), 4)
        assert got.terms == tuple(Scalar(bell_poly(n)) for n in range(5))

    def test_thm2_gives_eulerian_polynomials(self):
        got = moments_from_jacobi(thm2_params(6), 3)
        assert got.terms == tuple(Scalar(eulerian_poly(n)) for n in range(4))

    def test_laguerre_gives_factorials(self):
        got = moments_from_jacobi(laguerre_params(6), 4)
        assert got.terms == tuple(Scalar(factorial(n)) for n in range(5))

    def test_count_exceeds_depth(self):
        with pytest.raises(ValueError, match="insufficient"):
            moments_from_jacobi(thm1_params(3), 4)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            moments_from_jacobi(thm1_params(3), -1)

    def test_nonunit_a0_scales(self):
        params = JacobiParams(
            alpha=laguerre_params(4).alpha,
            beta=laguerre_params(4).beta,
            a0=Scalar(5),
        )
        got = moments_from_jacobi(params, 3)
        assert got.terms == tuple(Scalar(5 * factorial(n)) for n in range(4))


class TestJFraction:
    def test_thm1_expansion(self):
        got = jfraction_expand(thm1_params(8), 6)
        assert got.coeffs == tuple(Scalar(bell_poly(n)) for n in range(7))

    def test_thm2_expansion(self):
        got = jfraction_expand(thm2_params(8), 6)
        assert got.coeffs == tuple(Scalar(eulerian_poly(n)) for n in range(7))

    def test_trivial_constant(self):
        params = JacobiParams(alpha=(ZERO, ZERO), beta=(ZERO,), a0=ONE)
        got = jfraction_expand(params, 2)
        assert got.coeffs == (ONE, ZERO, ZERO)

    def test_matches_moment_route(self):
        params = laguerre_params(5)
        assert jfraction_by_levels(params, 5).coeffs == \
            moments_from_jacobi(params, 5).terms

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            jfraction_expand(thm1_params(3), -1)

    def test_order_beyond_depth(self):
        with pytest.raises(ValueError, match="insufficient parameters: order 4 > depth 3"):
            jfraction_expand(thm1_params(3), 4)

    def test_depth_zero_is_the_constant(self):
        params = JacobiParams(alpha=(), beta=(), a0=Scalar(5))
        assert jfraction_expand(params, 0) == jfraction_by_levels(params, 0)


class TestJacobiRecovery:
    def test_bell_polynomial_moments(self):
        moments = MomentSequence(tuple(Scalar(bell_poly(n)) for n in range(9)))
        rec = jacobi_from_moments(moments)
        assert not rec.finite_support
        assert rec.depth == 4
        assert rec.params.alpha == tuple(Z + n for n in range(4))
        assert rec.params.beta == tuple(Z * n for n in range(1, 4))

    def test_factorial_moments(self):
        moments = MomentSequence(tuple(Scalar(factorial(n)) for n in range(9)))
        rec = jacobi_from_moments(moments)
        assert rec.params.alpha == tuple(Scalar(2 * n + 1) for n in range(4))
        assert rec.params.beta == tuple(Scalar(n * n) for n in range(1, 4))

    def test_point_mass_terminates(self):
        c = Scalar(3)
        moments = MomentSequence((ONE, c, c * c, c * c * c))
        rec = jacobi_from_moments(moments)
        assert rec.finite_support
        assert rec.depth == 1
        assert rec.params.alpha == (c,)
        assert rec.params.beta == ()

    def test_zero_a0_rejected(self):
        with pytest.raises(ValueError, match="a_0"):
            jacobi_from_moments(MomentSequence((ZERO, ONE)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one moment"):
            jacobi_from_moments([])
        with pytest.raises(ValueError, match="at least one moment"):
            jacobi_from_moments(iter(()))

    def test_round_trip_random(self):
        rng = random.Random(20260808)
        for _ in range(15):
            depth = 5
            alpha = tuple(Scalar(rng.randint(-3, 3)) for _ in range(depth))
            beta = tuple(Scalar(rng.randint(1, 4)) for _ in range(depth - 1))
            params = JacobiParams(alpha=alpha, beta=beta)
            moments = moments_from_jacobi(params, depth)
            rec = jacobi_from_moments(moments)
            assert not rec.finite_support
            d = rec.depth
            assert rec.params.alpha == alpha[:d]
            assert rec.params.beta == beta[: max(d - 1, 0)]

    def test_round_trip_with_z(self):
        params = thm2_params(5)
        moments = moments_from_jacobi(params, 5)
        rec = jacobi_from_moments(moments)
        assert rec.params.alpha == params.alpha[: rec.depth]
        assert rec.params.beta == params.beta[: rec.depth - 1]


class TestExtractedConsistency:
    def test_coeff_array_equals_er_inverse(self):
        # Jacobi data read off the production matrix reproduces the inverse
        # array rows through the three-term recurrence.
        n = 6
        a = er_build(*named_pair("thm2", n))
        params = extract_jacobi(production_from_pair(a))
        rows = coeff_array_from_jacobi(params, n - 1)
        inv = er_inverse(a).entries
        for r in range(n):
            assert rows[r][: r + 1] == inv[r][: r + 1]


class TestInvertLowerTriangular:
    def test_random_inverse(self):
        rng = random.Random(55)
        size = 6
        rows = tuple(
            tuple(
                random_scalar(rng, with_z=True) if k < r
                else (ONE + (Z if rng.random() < 0.3 else ZERO)) if k == r
                else ZERO
                for k in range(size)
            )
            for r in range(size)
        )
        inv = invert_lower_triangular(rows)
        product = matrix_product(rows, inv)
        for i in range(size):
            for j in range(size):
                assert product[i][j] == (ONE if i == j else ZERO)

    def test_singular_rejected(self):
        rows = ((ONE, ZERO), (ONE, ZERO))
        with pytest.raises(ZeroDivisionError, match="singular"):
            invert_lower_triangular(rows)


_entries = st.one_of(poly_scalars, rational_scalars)


@st.composite
def jacobi_cases(draw):
    """Jacobi data over Q(z), with zero betas and a0 != 1, and a count.

    Depth and count are sampled evenly, not by size, so that counts near the
    depth (the deepest tableau rows) are as common as small ones.
    """
    depth = draw(st.sampled_from(range(11)))
    alpha = draw(st.lists(_entries, min_size=depth, max_size=depth))
    size = max(depth - 1, 0)
    beta = draw(st.lists(st.one_of(_entries, st.just(ZERO)), min_size=size, max_size=size))
    params = JacobiParams(alpha=tuple(alpha), beta=tuple(beta), a0=draw(_entries))
    return params, max(depth - draw(st.sampled_from((0, 0, 1, 2))), 0)


class TestAgainstOracles:
    """The tableau equals the matrix-inverse route and the J-fraction."""

    @ORACLE_SETTINGS
    @given(case=jacobi_cases())
    def test_tableau_matches_inverse_and_jfraction(self, case):
        params, count = case
        got = moments_from_jacobi(params, count).terms
        assert got == moments_by_inverse(params, count)
        assert got == jfraction_by_levels(params, count).coeffs


#: Jacobi data for the differential tests of the two tableaux: polynomial,
#: rational, with one zero beta (finite support), and with a rational a0.
TABLEAU_KINDS = ("polynomial", "rational", "zero_beta", "rational_a0")

#: Integer polynomials with coefficients up to 2^80 in magnitude, of either sign.
_wide_polys = st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=3).map(
    lambda cs: Scalar(PolyZ.from_integers(cs)))
#: Wide polynomials under the rational contents 1/3 and z/7 and over the
#: denominators z + 1 and 3z - 2.
_wide_entries = st.builds(
    lambda p, c, q: p * c / q, _wide_polys,
    st.sampled_from((ONE, Scalar(Fraction(1, 3)), Z / 7)),
    st.sampled_from((ONE, Z + 1, Z * 3 - 2)))


@st.composite
def tableau_cases(draw, kind):
    """(params, depth) of the given kind; ``"wide"`` data is ``_wide_entries``
    to depth 16 with alpha_0 over 3z - 2 (so D = e d != 1 at every count),
    one zero beta and a rational-function a0."""
    depth = draw(st.sampled_from(range(1, 17 if kind == "wide" else 11)))
    entries = {"polynomial": poly_scalars, "rational": rational_scalars,
               "wide": _wide_entries}.get(kind, _entries)
    alpha = draw(st.lists(entries, min_size=depth, max_size=depth))
    beta = draw(st.lists(entries.filter(bool), min_size=depth - 1, max_size=depth - 1))
    if kind in ("zero_beta", "wide") and beta:
        beta[draw(st.integers(0, len(beta) - 1))] = ZERO
    a0 = ONE
    if kind == "rational_a0":
        a0 = draw(st.one_of(rational_leads, rational_scalars).filter(
            lambda c: c and c != ONE))
    if kind == "wide":
        alpha[0] = draw(_wide_polys.filter(bool)) / (Z * 3 - 2)
        a0 = draw(_wide_polys.filter(bool)) / (Z + 2)
    return JacobiParams(alpha=tuple(alpha), beta=tuple(beta), a0=a0), depth


class TestTableauxAgainstChained:
    """The packed Stieltjes tableau and the Chebyshev tableau over one
    denominator per row equal the chains of ring operations and the
    tableaux of one ``dot`` per entry that they replaced, on every moment
    and every (s, alpha, beta) triple."""

    @pytest.mark.parametrize("kind", TABLEAU_KINDS)
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_moments(self, kind, data):
        params, depth = data.draw(tableau_cases(kind))
        for count in (depth, depth - 1):
            assert moments_from_jacobi(params, count) == \
                moments_by_chained_tableau(params, count) == \
                moments_by_dot_tableau(params, count)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_wide_moments_at_every_count(self, data):
        params, depth = data.draw(tableau_cases("wide"))
        for count in range(depth + 1):
            assert moments_from_jacobi(params, count) == \
                moments_by_chained_tableau(params, count) == \
                moments_by_dot_tableau(params, count)

    def test_nonnegative_data_attains_the_norm_bound(self):
        """On integer data with no negative coefficient, D = 1 and the 1-norm
        of each head is its value at z = 1, which the norm tableau reaches
        exactly, so the slot width is as narrow as the bound allows.
        Laguerre data comes first: its heads are the constants m!, which
        fill the top slot bit, and the counts run down, so a slot one bit
        narrower misreads 40! before a width of 1 at count 1 could stall
        the read-back."""
        for params in (laguerre_params(40), thm1_params(40), thm2_params(40)):
            for count in range(40, -1, -1):
                assert moments_from_jacobi(params, count) == \
                    moments_by_dot_tableau(params, count)
            norms = [1] + [a.eval_z(1) for a in params.alpha[:21]] + \
                [b.eval_z(1) for b in params.beta[:20]]
            heads = moments_from_jacobi(params, 40).terms[1:]
            assert orthopoly._stieltjes_heads(norms, 20, 40) == [h.eval_z(1) for h in heads]

    @pytest.mark.parametrize("kind", TABLEAU_KINDS)
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_walk(self, kind, data):
        params, depth = data.draw(tableau_cases(kind))
        terms = moments_by_chained_tableau(params, depth).terms
        for prefix in (terms, terms[:-1]):
            assert list(orthopoly._walk(prefix)) == list(walk_by_integer_rows(prefix)) == \
                list(walk_by_dot_tableau(prefix)) == list(walk_by_chained_tableau(prefix))


def _walks_agree(terms) -> bool:
    return list(orthopoly._walk(terms)) == list(walk_by_integer_rows(terms)) == \
        list(walk_by_dot_tableau(terms)) == list(walk_by_chained_tableau(terms))


#: Raw Q(z) entries that no Jacobi data was drawn for: contents such as
#: 1/3, non-monic and repeated denominators such as 2z + 1, and zero.
_raw_entries = st.builds(
    lambda p, q: p / q,
    st.one_of(poly_scalars, st.sampled_from((ZERO, ONE, Scalar(Fraction(1, 3)), Z))),
    st.sampled_from((ONE, Scalar(3), Z * 2 + 1, Z + 1, Z * Z + 1, Z * 3 - 2)))


class TestWalkOnRawSequences:
    """The walk over one denominator per row equals the tableaux of one
    ``dot`` per entry and of chained ring operations on raw Q(z)
    sequences, which come from no Jacobi data."""

    @ORACLE_SETTINGS
    @given(terms=st.lists(_raw_entries, min_size=1, max_size=13))
    def test_raw_sequences(self, terms):
        assert _walks_agree(tuple(terms))

    def test_explicit_sequences(self):
        q = ONE / (Z * 2 + 1)
        cases = (
            # Polynomial, with the lcm cofactors that the first rational
            # step needs when Y = 1.
            [Scalar(2), ONE, Z, Z, Z * Z, ONE, ZERO],
            # A rational a0 over a polynomial tail: the rows from l >= 1 on
            # are polynomial, so their lcm turns constant while D_k does
            # not.
            [ONE / (Z + 1), ONE, Z, Z * Z, Z + 3, ONE, Z],
            # A non-monic denominator and a constant one.
            [q, Scalar(Fraction(1, 3)), Z * q, ONE, Z, Z / (Z + 1), ONE / (Z * Z + 1), Scalar(5)],
            # Constant moments over 2z + 1: s_1 = 0 part-way.
            [q] * 7,
            # The two-point measure over 2z + 1: s_2 = 0 part-way.
            [q, ZERO] * 4 + [q],
        )
        for terms in cases:
            assert _walks_agree(tuple(terms))
        assert [s.is_zero for s, _, _ in orthopoly._walk(tuple(cases[3]))] == [False, True]
        assert [s.is_zero for s, _, _ in orthopoly._walk(tuple(cases[4]))] == \
            [False, False, True]


def _exact_width(bound: int) -> int:
    """The walk's slot width with no headroom: the least that holds every
    coefficient up to ``bound`` in absolute value."""
    return bound.bit_length() + 1


def _packed_walk_agrees(terms, width=None) -> bool:
    """The packed walk equals the integer rows and the dot tableau on every
    prefix of ``terms``, with the slot widths given by ``width`` (the
    walk's own ``_width`` by default)."""
    with patch.object(orthopoly, "_width", width or orthopoly._width):
        for end in range(1, len(terms) + 1):
            prefix = terms[:end]
            walk = list(orthopoly._walk(prefix))
            if walk != list(walk_by_integer_rows(prefix)) or \
                    walk != list(walk_by_dot_tableau(prefix)):
                return False
    return True


def _row_denominators(walk, module, terms) -> list:
    """The integer denominators e_k that ``walk`` divides its unpacked
    entries by, read off its calls of ``module._normal``."""
    seen = []
    normal = module._normal

    def spy(ints, num, den):
        seen.append(den)
        return normal(ints, num, den)

    with patch.object(module, "_normal", spy):
        list(walk(terms))
    return seen


#: Polynomials under the rational contents 1/2, 2/3, 5/4 and 1/6, so that
#: the rows carry an integer denominator e != 1.
_content_entries = st.builds(
    lambda p, c: p * Scalar(c), poly_scalars,
    st.sampled_from((Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(1, 6))))
#: Integers up to 2^70 in absolute value: one slot per entry.
_integer_entries = st.integers(-(1 << 70), 1 << 70).map(Scalar)
#: Rational constants: one slot per entry, over e != 1.
_rational_entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6))).map(
    Scalar)
#: A small alphabet, so that some s_k vanishes part-way.
_vanishing_entries = st.sampled_from((ZERO, ONE, -ONE, Scalar(2), Z))
WIDTHS = pytest.mark.parametrize("width", [None, _exact_width], ids=["headroom", "exact"])


class TestPackedWalk:
    """The walk on packed rows equals the integer rows it replaced and the
    tableau of one ``dot`` per entry at every prefix of the moments, both
    with the walk's headroom and with none, every width then the least one
    its coefficient bound proves; a width one bit narrower fails, and the
    trim of e_k is the one the integer rows take."""

    @WIDTHS
    @pytest.mark.parametrize("kind", ("polynomial", "rational"))
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_jacobi_moments(self, width, kind, data):
        params, depth = data.draw(tableau_cases(kind))
        assert _packed_walk_agrees(moments_by_chained_tableau(params, depth).terms, width)

    @WIDTHS
    @pytest.mark.parametrize(
        "entries", (_content_entries, _integer_entries, _rational_entries, _vanishing_entries),
        ids=("contents", "integers", "rationals", "vanishing"))
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_raw_sequences(self, width, entries, data):
        terms = tuple(data.draw(st.lists(entries, min_size=1, max_size=11)))
        assert _packed_walk_agrees(terms, width)

    def test_explicit_sequences_at_the_exact_width(self):
        q = ONE / (Z * 2 + 1)
        cases = ([q] * 7, [q, ZERO] * 4 + [q], [ONE, ZERO, ONE, ZERO, ONE],
                 moments_from_jacobi(thm2_params(17), 16).terms,
                 tuple(map(Scalar, (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975))),
                 # A trim measures the row's bound again, and the next
                 # step's width rests on it.
                 tuple(parse_scalar(t) for t in (
                     "1", "-6", "-7/4", "-2", "5/4", "1/2", "3/2", "-2/3", "5/2", "-1/3", "5/6")))
        for terms in cases:
            assert _packed_walk_agrees(tuple(terms), _exact_width)

    def test_one_bit_narrower_fails(self):
        """The largest coefficient of a_1 = 3z + 2^40 - 1 is 2^40 - 1, so
        the least width is 41 bits; at 40 its slot reads back as the digit
        -1 and a borrow, so alpha_0 comes out as 4z - 1."""
        terms = (ONE, Z * 3 + ((1 << 40) - 1), Scalar(5) - Z, Z * 7, ONE, Z)
        assert _packed_walk_agrees(terms, _exact_width)
        with patch.object(orthopoly, "_width", lambda bound: bound.bit_length()):
            walk = list(orthopoly._walk(terms))
        assert walk[0][1] == Z * 4 - 1
        assert walk != list(walk_by_integer_rows(terms))

    def test_trim_divides_by_the_coefficient_gcd(self):
        """Here the gcd of e_k with the packed entries is 4 at one step but
        the gcd with their coefficients is 2: the walk divides by 2, and
        its row denominators are those of the integer rows."""
        terms = tuple(parse_scalar(t) for t in (
            "-z + 9/4", "-z - 6", "z - 1", "1/2*z", "1/3*z + 3", "-z + 4/5"))
        gcds = []
        real = orthopoly.gcd

        def spy(*args):
            gcds.append(real(*args))
            return gcds[-1]

        with patch.object(orthopoly, "gcd", spy):
            assert list(orthopoly._walk(terms)) == list(walk_by_integer_rows(terms))
        assert (4, 2) in zip(gcds, gcds[1:])
        assert _row_denominators(orthopoly._walk, orthopoly, terms) == \
            _row_denominators(walk_by_integer_rows, oracles, terms)

    @ORACLE_SETTINGS
    @given(terms=st.lists(_content_entries, min_size=2, max_size=11))
    def test_row_denominators_equal_the_integer_rows(self, terms):
        terms = tuple(terms)
        assert _row_denominators(orthopoly._walk, orthopoly, terms) == \
            _row_denominators(walk_by_integer_rows, oracles, terms)

    def test_unit_gcd_leaves_the_row_packed(self):
        """Moments whose rows carry e_k = 2 and then 4, with packed entries
        coprime to it at every step: the walk unpacks only V_k(k) and
        V_k(k+1), and the last s_k."""
        params = JacobiParams(
            tuple(parse_scalar(t) for t in ("z + 1", "z - 3", "2*z - 3", "3/2*z + 3/2", "z")),
            tuple(parse_scalar(t) for t in ("2*z + 3/2", "z + 1/2", "2*z + 3", "z + 1/2")))
        terms = moments_from_jacobi(params, 4).terms
        unpacked = []
        real = orthopoly._unpack
        with patch.object(orthopoly, "_unpack", lambda v, w: unpacked.append(v) or real(v, w)):
            steps = len(list(orthopoly._walk(terms)))
        assert max(_row_denominators(orthopoly._walk, orthopoly, terms)) > 1
        assert len(unpacked) == 2 * steps - 1


@st.composite
def _digit_lists(draw):
    """A slot width w and a few lists of signed base-2^w digits."""
    w = draw(st.integers(2, 300))
    half = 1 << (w - 1)
    return w, draw(st.lists(st.lists(st.integers(-half, half - 1), max_size=20), max_size=5))


class TestPackedBound:
    """``scalars._packed_bound`` is a power of two at least the largest
    coefficient magnitude of packed ints, and at most twice it."""

    @ORACLE_SETTINGS
    @given(case=_digit_lists())
    # A top digit 1 over the digit -2^(w-1) packs into 7, a 3-bit int
    # whose digits fill three 2-bit slots.
    @example(case=(2, [[-1, -2, 1]]))
    def test_against_the_digits(self, case):
        w, polys = case
        values = [scalars._pack(p, w) for p in polys]
        largest = max((abs(c) for p in polys for c in p), default=0)
        bound = scalars._packed_bound(values, w)
        assert bound & (bound - 1) == 0
        assert largest <= bound <= max(2 * largest, 1)

    def test_extreme_digits(self):
        for w in (2, 3, 30, 64, 65):
            half = 1 << (w - 1)
            for digits, bound in (([-half], half), ([half - 1], half), ([0, 0, -1], 1),
                                  ([1, -half, 0, half - 1], half), ([], 1)):
                assert scalars._packed_bound([scalars._pack(digits, w)], w) == bound


class TestWalkGcdCount:
    """The walk takes its gcds per step, not per entry: on a polynomial
    sequence it calls neither ``_cofactors`` nor ``dot`` at all, since its
    rows are integer vectors and its divisions exact, and on rational
    moments it calls ``_cofactors`` a bounded number of times per step."""

    @staticmethod
    def _count(monkeypatch, walk, terms, name="_cofactors") -> int:
        calls = []
        real = getattr(scalars, name)

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(scalars, name, counted)
        if hasattr(orthopoly, name):
            monkeypatch.setattr(orthopoly, name, counted)
        list(walk(terms))
        monkeypatch.undo()
        return len(calls)

    def test_polynomial_sequence(self, monkeypatch):
        terms = moments_from_jacobi(thm2_params(17), 16).terms
        assert self._count(monkeypatch, orthopoly._walk, terms, "_cofactors") == 0
        assert self._count(monkeypatch, orthopoly._walk, terms, "dot") == 0

    def test_polynomial_hankel_job(self, monkeypatch):
        n, params = next(job for job in Hankel().make_jobs(erarray, 1)
                         if all(b.is_polynomial for b in job[1].beta))
        terms = moments_from_jacobi(params, 2 * n).terms
        assert self._count(monkeypatch, orthopoly._walk, terms, "_cofactors") == 0
        assert self._count(monkeypatch, orthopoly._walk, terms, "dot") == 0

    def test_rational_moments(self, monkeypatch):
        rng = random.Random(17)
        depth = 17
        alpha = tuple(Scalar(rng.randint(-3, 3)) + Z * rng.randint(1, 2) for _ in range(depth))
        beta = tuple((Scalar(rng.randint(1, 3)) + Z * rng.randint(1, 2)) / (Z + rng.randint(1, 3))
                     for _ in range(depth - 1))
        terms = moments_from_jacobi(JacobiParams(alpha, beta), depth - 1).terms
        steps = len(list(orthopoly._walk(terms)))
        entries = sum(len(terms) - 2 * k - 2 for k in range(steps - 1))
        got = self._count(monkeypatch, orthopoly._walk, terms)
        # Row 0 takes one gcd per denominator, and each step canonicalises
        # s, the ratio, alpha and beta and takes one gcd for D_{k+1}; the
        # tableau of one ``dot`` per entry takes several per entry.
        assert got <= len(terms) + 6 * steps
        assert got < entries
        assert 2 * entries < self._count(monkeypatch, walk_by_dot_tableau, terms)


def _recover(route, moments):
    try:
        rec = route(moments)
    except ValueError:
        return ValueError
    return rec.params, rec.depth, rec.finite_support


#: Raw moments: up to 13 over a small alphabet, so that some s_k vanishes
#: part-way, or up to 13 general Q(z) entries.
_raw_moments = st.one_of(
    st.lists(st.sampled_from([ZERO, ONE, -ONE, Scalar(2), Z]), min_size=1, max_size=13),
    st.lists(_entries, min_size=1, max_size=13),
)


#: Thirteen general (linear)/(linear) moments.  With primitive-Euclid gcds
#: in the fraction field, recovering their Jacobi data took about 70 s.
_GENERAL_RATIONAL_MOMENTS = [parse_scalar(t) for t in (
    "-8/3", "(-1/3*z + 1/6)/(z - 1/4)", "-3*z + 9/2", "(-1/3)/(z + 1)",
    "(-4*z - 9)/(z + 9)", "-3*z", "1/2*z", "(3)/(z + 3)", "6*z + 3/2",
    "(2/9)/(z - 2/9)", "(z - 3/2)/(z + 3/2)", "0", "0")]


class TestRecoveryAgainstStieltjes:
    """The Chebyshev algorithm equals the Stieltjes procedure it replaced."""

    @ORACLE_SETTINGS
    @given(case=jacobi_cases())
    def test_moments_of_jacobi_data(self, case):
        params, count = case
        moments = moments_from_jacobi(params, count).terms
        assert _recover(jacobi_from_moments, moments) == \
            _recover(jacobi_by_stieltjes, moments)

    @ORACLE_SETTINGS
    @given(terms=_raw_moments)
    @example(terms=[ONE, ONE, ONE, ONE, ONE])
    @example(terms=[Scalar(2), ONE, Z, Z, Z * Z, ONE, ZERO])
    @example(terms=[ONE, ZERO, ONE, ZERO, ONE, ZERO, ONE, ONE, ZERO])
    @example(terms=_GENERAL_RATIONAL_MOMENTS)
    def test_raw_sequences(self, terms):
        assert _recover(jacobi_from_moments, terms) == _recover(jacobi_by_stieltjes, terms)

    def test_raw_sequences_reach_finite_support(self):
        # s_1 = 0 for constant moments; s_2 = 0 for the two-point measure
        # with moments 1, 0, 1, 0, 1, ...
        for terms, depth in (([ONE] * 5, 1), ([ONE, ZERO] * 3 + [ONE], 2)):
            rec = jacobi_from_moments(terms)
            assert rec.finite_support and rec.depth == depth
            assert _recover(jacobi_from_moments, terms) == \
                _recover(jacobi_by_stieltjes, terms)


class TestSharedWalk:
    """The Hankel transform and the Jacobi recovery of one sequence share
    one Chebyshev walk through a one-slot memo, and nothing stale is
    returned."""

    A = moments_from_jacobi(thm2_params(9), 8).terms
    B = A[:4] + (A[4] + 1,) + A[5:]

    @staticmethod
    def _both(terms, transform_first):
        """(transform, recovery) of ``terms``, computed in the given order."""
        nmax = (len(terms) - 1) // 2
        if transform_first:
            transform = hankel_transform(terms, nmax)
            return transform, _recover(jacobi_from_moments, terms)
        recovery = _recover(jacobi_from_moments, terms)
        return hankel_transform(terms, nmax), recovery

    @staticmethod
    def _oracles(terms):
        nmax = (len(terms) - 1) // 2
        return (hankel_transform_by_elimination(terms, nmax),
                _recover(jacobi_by_stieltjes, terms))

    @pytest.mark.parametrize("transform_first", [True, False])
    def test_either_order_matches_the_oracles(self, transform_first):
        for terms in (self.A, self.B):
            assert self._both(terms, transform_first) == self._oracles(terms)

    def test_alternating_sequences_are_not_stale(self):
        assert len(self.A) == len(self.B) and self.A != self.B
        for terms in (self.A, self.B, self.A):
            assert self._both(terms, True) == self._oracles(terms)

    def test_one_slot_walks_again_after_another_sequence(self, monkeypatch):
        walk, calls = orthopoly._walk, []

        def counted(terms):
            calls.append(terms)
            return walk(terms)

        monkeypatch.setattr(orthopoly, "_walk", counted)
        monkeypatch.setattr(orthopoly, "_last_walk", ((), ()))
        for terms in (self.A, self.B, self.A):
            assert self._both(terms, True) == self._oracles(terms)
        assert calls == [self.A, self.B, self.A]

    @ORACLE_SETTINGS
    @given(case=jacobi_cases(), transform_first=st.booleans())
    def test_results_do_not_depend_on_call_order(self, case, transform_first):
        params, count = case
        terms = moments_from_jacobi(params, count).terms
        # Another sequence is walked before each pair of calls, so the slot
        # starts elsewhere.
        jacobi_from_moments(self.A)
        got = self._both(terms, transform_first)
        jacobi_from_moments(self.B)
        assert self._both(terms, not transform_first) == got == self._oracles(terms)
