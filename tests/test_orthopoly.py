from __future__ import annotations

import random
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from erarray.orthopoly import (
    JacobiParams,
    MomentSequence,
    coeff_array_from_jacobi,
    invert_lower_triangular,
    jacobi_from_moments,
    jfraction_expand,
    moments_from_jacobi,
)
from erarray.riordan import er_build, er_inverse, extract_jacobi, production_from_pair
from erarray.scalars import ONE, ZERO, Scalar, Z
from erarray.sequences import bell_poly, eulerian_poly, named_pair

from oracles import (
    ORACLE_SETTINGS,
    matrix_product,
    moments_by_inverse,
    poly_scalars,
    random_scalar,
    rational_scalars,
)


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
        assert jfraction_expand(params, 5).coeffs == \
            moments_from_jacobi(params, 5).terms


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
    depth = draw(st.sampled_from(range(7)))
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
        assert got == jfraction_expand(params, count).coeffs
