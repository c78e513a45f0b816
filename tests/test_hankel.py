from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from erarray.checks import _hankel_closed_form
from erarray.hankel import (
    binomial_transform,
    det_bareiss,
    det_scalar,
    hankel_det,
    hankel_matrix,
    hankel_transform,
    hankel_from_betas,
)
from erarray.orthopoly import JacobiParams, moments_from_jacobi
from erarray.scalars import ONE, POLY_ONE, ZERO, PolyZ, Scalar, Z
from erarray.sequences import bell_poly

from oracles import (
    ORACLE_SETTINGS,
    bell_numbers,
    binomial_transform_by_sum,
    det_cofactor,
    det_fraction_field,
    hankel_transform_by_elimination,
    poly_scalars,
    random_scalar,
    rational_scalars,
)


def closed_form(base: Scalar, power: int, nmax: int) -> list[Scalar]:
    out = []
    for n in range(nmax + 1):
        h = base ** comb(n + 1, 2)
        for k in range(1, n + 1):
            h = h * factorial(k) ** power
        out.append(h)
    return out


class TestDeterminants:
    def test_identity_two(self):
        assert hankel_det([ONE, ZERO, ONE], 1) == ONE

    def test_bell_polynomial_level_one(self):
        seq = [Scalar(bell_poly(n)) for n in range(3)]
        assert hankel_det(seq, 1) == Z

    def test_constant_sequence_degenerates(self):
        assert hankel_det([ONE, ONE, ONE], 1) == ZERO

    def test_insufficient_terms(self):
        with pytest.raises(ValueError, match="need 3 terms"):
            hankel_det([ONE], 1)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            hankel_det([ONE, ONE, ONE], -1)

    def test_bareiss_row_swap(self):
        rows = [[PolyZ(), PolyZ((1,))], [PolyZ((1,)), PolyZ()]]
        assert det_bareiss(rows) == PolyZ((-1,))

    def test_bareiss_zero_column(self):
        rows = [[PolyZ(), PolyZ((1,))], [PolyZ(), PolyZ((2,))]]
        assert det_bareiss(rows).is_zero

    def test_empty_and_non_square(self):
        assert det_bareiss([]) is POLY_ONE and det_scalar([]) == ONE
        for det in (det_bareiss, det_scalar):
            with pytest.raises(ValueError, match="determinant needs a square matrix"):
                det([[ONE.num, ONE.num]])
            with pytest.raises(ValueError, match="determinant needs a square matrix"):
                det([[ONE.num, ONE.num], [ONE.num]])

    def test_routes_agree_polynomial(self):
        rng = random.Random(11)
        for _ in range(10):
            size = rng.randint(1, 4)
            rows = [
                [random_scalar(rng, with_z=True) for _ in range(size)]
                for _ in range(size)
            ]
            expected = det_cofactor(rows)
            assert det_scalar(rows) == expected
            assert det_fraction_field(rows) == expected

    def test_routes_agree_with_denominators(self):
        rng = random.Random(13)
        for _ in range(8):
            size = rng.randint(1, 3)
            rows = [
                [
                    random_scalar(rng, with_z=True)
                    / (Z + rng.randint(2, 4))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            expected = det_cofactor(rows)
            assert det_scalar(rows) == expected
            assert det_fraction_field(rows) == expected

    def test_fractional_hankel_matrix(self):
        seq = [ONE / (Z + 1), ONE, Z, Z * Z, ONE]
        assert det_scalar(hankel_matrix(seq, 2)) == det_cofactor(hankel_matrix(seq, 2))


class TestHankelTransform:
    def test_bell_numbers(self):
        bells = bell_numbers(9)
        got = hankel_transform([Scalar(b) for b in bells], 4)
        assert got == [Scalar(v) for v in (1, 1, 2, 12, 288)]

    def test_bell_polynomials(self):
        seq = [Scalar(bell_poly(n)) for n in range(9)]
        got = hankel_transform(seq, 4)
        assert [str(h) for h in got] == ["1", "z", "2*z^3", "12*z^6", "288*z^10"]
        assert got == closed_form(Z, 1, 4)

    def test_eulerian_polynomials(self):
        from erarray.sequences import eulerian_poly

        seq = [Scalar(eulerian_poly(n)) for n in range(9)]
        got = hankel_transform(seq, 4)
        assert got == closed_form(Z, 2, 4)
        assert str(got[2]) == "4*z^3"
        assert str(got[3]) == "144*z^6"

    def test_term_shortage(self):
        with pytest.raises(ValueError, match="need 3 terms"):
            hankel_transform([ONE], 1)

    def test_negative_nmax(self):
        with pytest.raises(ValueError, match="nmax must be >= 0, got -1"):
            hankel_transform([Scalar(v) for v in (1, 1, 2, 5)], -1)


class TestBetaProduct:
    def test_thm1_level_three(self):
        params = JacobiParams(
            alpha=tuple(Z + n for n in range(4)),
            beta=tuple(Z * n for n in range(1, 4)),
        )
        got = hankel_from_betas(params, 3)
        assert str(got[3]) == "12*z^6"

    def test_thm2_level_two(self):
        params = JacobiParams(
            alpha=tuple(Z * (n + 1) + n for n in range(3)),
            beta=tuple(Z * (n * n) for n in range(1, 3)),
        )
        assert str(hankel_from_betas(params, 2)[2]) == "4*z^3"

    def test_h0_is_a0(self):
        params = JacobiParams(alpha=(ONE,), beta=(), a0=Scalar(5))
        assert hankel_from_betas(params, 0) == [Scalar(5)]

    def test_a0_exponent_against_brute_force(self):
        # a0 != 1 distinguishes the n+1 exponent from the published n.
        params = JacobiParams(
            alpha=(ONE, Scalar(2), ZERO), beta=(Scalar(2), Scalar(3)), a0=Scalar(3)
        )
        moments = moments_from_jacobi(params, 3)
        brute = [det_cofactor(hankel_matrix(moments, n)) for n in range(2)]
        assert hankel_from_betas(params, 1) == brute

    def test_checks_closed_form_needs_no_string(self):
        # thm2's closed form z^C(n+1,2) prod k!^2 at n = 62 has a coefficient
        # of more than 4300 digits, past CPython's default int-to-str limit,
        # so this comparison would fail if the closed form went through str.
        params = JacobiParams(
            alpha=(ZERO,) * 63, beta=tuple(Z * (k * k) for k in range(1, 63))
        )
        got = _hankel_closed_form(Z, 2, 62)
        assert got[-1].num.leading.numerator.bit_length() > 4300 * 3.33
        assert got == hankel_from_betas(params, 62)
        assert got[:8] == closed_form(Z, 2, 7)

    def test_beta_shortage(self):
        params = JacobiParams(alpha=(ONE, ONE), beta=(ONE,))
        with pytest.raises(ValueError, match="betas"):
            hankel_from_betas(params, 2)

    def test_negative_nmax(self):
        params = JacobiParams(alpha=(ONE, ONE), beta=(ONE,))
        with pytest.raises(ValueError, match="nmax must be >= 0, got -1"):
            hankel_from_betas(params, -1)


class TestBinomialTransform:
    def test_delta_to_ones(self):
        got = binomial_transform([ONE, ZERO, ZERO, ZERO])
        assert got.terms == (ONE, ONE, ONE, ONE)

    def test_bell_shift(self):
        bells = bell_numbers(10)
        got = binomial_transform([Scalar(b) for b in bells[:9]])
        assert got.terms == tuple(Scalar(b) for b in bells[1:10])

    def test_zeros(self):
        got = binomial_transform([ZERO] * 5)
        assert all(t.is_zero for t in got.terms)

    @ORACLE_SETTINGS
    @given(terms=st.lists(st.one_of(poly_scalars, rational_scalars, st.just(ZERO)),
                          min_size=1, max_size=10))
    def test_matches_term_by_term_sum(self, terms):
        assert binomial_transform(terms).terms == binomial_transform_by_sum(terms)


class TestEliminationAgreement:
    def test_corpus_hankel_matrices(self):
        from erarray.sequences import eulerian_poly

        corpus = [
            [Scalar(bell_poly(n)) for n in range(9)],
            [Scalar(eulerian_poly(n)) for n in range(9)],
            [Scalar(b) for b in bell_numbers(9)],
            [Scalar(factorial(n)) for n in range(9)],
        ]
        for seq in corpus:
            for n in range(4):
                m = hankel_matrix(seq, n)
                assert all(e.is_polynomial for row in m for e in row)
                via_bareiss = Scalar(det_bareiss([[e.num for e in row] for row in m]))
                assert via_bareiss == det_fraction_field(m)
                assert via_bareiss == det_scalar(m)


class TestOracleEquivalence:
    def test_random_jacobi_hankel_match(self):
        rng = random.Random(424242)
        for _ in range(12):
            depth = 6
            params = JacobiParams(
                alpha=tuple(Scalar(rng.randint(-3, 3)) for _ in range(depth)),
                beta=tuple(Scalar(rng.randint(1, 4)) for _ in range(depth - 1)),
            )
            moments = moments_from_jacobi(params, depth)
            nmax = (depth + 1) // 2
            assert hankel_transform(moments, nmax) == hankel_from_betas(params, nmax)

    def test_invariance_under_binomial_transform(self):
        corpus = [
            [Scalar(b) for b in bell_numbers(11)],
            [Scalar(factorial(n)) for n in range(11)],
            [Scalar(bell_poly(n).evaluate(2)) for n in range(11)],
            [Scalar(bell_poly(n).evaluate(Fraction(3))) for n in range(11)],
        ]
        for seq in corpus:
            transformed = binomial_transform(seq)
            assert hankel_transform(seq, 5) == hankel_transform(transformed, 5)


def _per_size(terms, nmax):
    return [det_fraction_field(hankel_matrix(terms, k)) for k in range(nmax + 1)]


@st.composite
def _sequences(draw, scalars):
    nmax = draw(st.integers(0, 4))
    return draw(st.lists(scalars, min_size=2 * nmax + 1, max_size=2 * nmax + 1)), nmax


@st.composite
def _singular_sequences(draw):
    """A sequence whose leading minor h_p vanishes at a drawn p <= nmax.

    h_p is affine in a_{2p}, with slope h_{p-1}, so a_{2p} is solved for;
    when h_{p-1} = 0 as well, the earlier zero already tests the fallback.
    """
    terms, nmax = draw(_sequences(st.one_of(poly_scalars, rational_scalars)))
    p = draw(st.integers(0, nmax))
    if p == 0:
        terms[0] = ZERO
        return terms, nmax
    terms[2 * p] = ZERO
    slope = det_fraction_field(hankel_matrix(terms, p - 1))
    if not slope.is_zero:
        terms[2 * p] = -det_fraction_field(hankel_matrix(terms, p)) / slope
        assert det_fraction_field(hankel_matrix(terms, p)).is_zero
    return terms, nmax


class TestTransformAgainstPerSizeDeterminants:
    """The tableau gives every h_k that a determinant per size gives."""

    @ORACLE_SETTINGS
    @given(case=_sequences(poly_scalars))
    def test_polynomial_sequences(self, case):
        terms, nmax = case
        assert hankel_transform(terms, nmax) == _per_size(terms, nmax)

    @ORACLE_SETTINGS
    @given(case=_sequences(st.one_of(poly_scalars, rational_scalars)))
    def test_rational_sequences(self, case):
        terms, nmax = case
        assert hankel_transform(terms, nmax) == _per_size(terms, nmax)

    @ORACLE_SETTINGS
    @given(case=_singular_sequences())
    @example(case=([ONE, ONE, ONE, Z, ONE, Z, Z * Z], 3))
    @example(case=([ZERO, ONE, ZERO, ONE, Z], 2))
    def test_vanishing_leading_minor(self, case):
        terms, nmax = case
        got = hankel_transform(terms, nmax)
        assert any(h.is_zero for h in got)
        assert got == _per_size(terms, nmax)


class TestTransformAgainstElimination:
    """The tableau gives every h_k that one fraction-free elimination of the
    largest Hankel matrix gives."""

    @ORACLE_SETTINGS
    @given(case=_sequences(poly_scalars))
    def test_polynomial_sequences(self, case):
        terms, nmax = case
        assert hankel_transform(terms, nmax) == hankel_transform_by_elimination(terms, nmax)

    @ORACLE_SETTINGS
    @given(case=_sequences(st.one_of(poly_scalars, rational_scalars)))
    def test_rational_sequences(self, case):
        terms, nmax = case
        assert hankel_transform(terms, nmax) == hankel_transform_by_elimination(terms, nmax)

    @ORACLE_SETTINGS
    @given(case=_singular_sequences())
    @example(case=([ONE, ONE, ONE, Z, ONE, Z, Z * Z], 3))
    @example(case=([ZERO, ONE, ZERO, ONE, Z], 2))
    def test_vanishing_leading_minor(self, case):
        terms, nmax = case
        assert hankel_transform(terms, nmax) == hankel_transform_by_elimination(terms, nmax)

    def test_longer_input_reads_its_prefix(self):
        terms = [Scalar(b) for b in bell_numbers(12)]
        assert hankel_transform(terms, 3) == hankel_transform(terms[:7], 3)
