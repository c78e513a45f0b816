from __future__ import annotations

import random
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from erarray.orthopoly import invert_lower_triangular
from erarray.riordan import (
    er_apply,
    er_build,
    er_inverse,
    er_mul,
    er_power,
    extract_jacobi,
    identity,
    production_cr,
    production_direct,
    production_from_pair,
)
from erarray.scalars import ONE, ZERO, Scalar, Z
from erarray.sequences import named_pair, stirling2
from erarray.series import Series

from oracles import (
    ORACLE_SETTINGS,
    apply_egf,
    bell_numbers,
    compose_horner,
    matrix_product,
    poly_scalars,
    production_bivariate_gf,
    random_pair,
    rational_leads,
    rational_scalars,
    revert_newton,
    series_of,
)

STIRLING_ROWS = [
    (1,),
    (0, 1),
    (0, 1, 1),
    (0, 1, 3, 1),
    (0, 1, 7, 6, 1),
    (0, 1, 15, 25, 10, 1),
]


def rows_of(array, count):
    return [tuple(array.entries[n][: n + 1]) for n in range(count)]


def int_rows(rows):
    return [tuple(Scalar(v) for v in row) for row in rows]


class TestBuild:
    def test_stirling_triangle(self):
        a = er_build(*named_pair("stirling2", 5))
        assert rows_of(a, 6) == int_rows(STIRLING_ROWS)

    def test_lah_like_row_5(self):
        a = er_build(*named_pair("lah_like", 5))
        assert a.row(5) == tuple(Scalar(v) for v in (120, 120, 60, 20, 5, 1))

    def test_laguerre_row_3(self):
        a = er_build(*named_pair("laguerre", 5))
        assert a.row(3) == tuple(Scalar(v) for v in (6, 18, 9, 1))

    def test_charlier_row_4(self):
        a = er_build(*named_pair("charlier", 5))
        assert a.row(4) == tuple(Scalar(v) for v in (1, 24, 29, 10, 1))

    def test_defining_identity(self):
        g, f = named_pair("thm1", 6)
        a = er_build(g, f)
        col = g
        for k in range(7):
            for n in range(k, 7):
                assert a.entries[n][k] * factorial(k) == col.coeffs[n] * factorial(n)
            col = col * f

    def test_diagonal_invariant(self):
        # entries[n][n] = g(0) f'(0)^n, also for non-monic pairs
        n = 5
        g = Series.constant(2, n) + Series.x(n)
        f = Series.x(n) * 3 + Series.x(n) * Series.x(n)
        a = er_build(g, f)
        for r in range(n + 1):
            assert a.entries[r][r] == Scalar(2) * Scalar(3) ** r

    def test_invalid_pairs(self):
        n = 4
        with pytest.raises(ValueError, match="Riordan pair"):
            er_build(Series.one(n), Series.one(n))  # f(0) != 0
        with pytest.raises(ValueError, match="Riordan pair"):
            er_build(Series.x(n), Series.x(n))  # g(0) = 0
        with pytest.raises(ValueError, match="Riordan pair"):
            er_build(Series.one(n), Series.x(n) * Series.x(n))  # f'(0) = 0
        with pytest.raises(ValueError, match="Riordan pair"):
            er_build(Series.one(3), Series.x(4))


class TestGroupLaw:
    def test_binomial_squared(self):
        n = 6
        b = er_build(*named_pair("binomial", n))
        x = Series.x(n)
        assert er_mul(b, b).entries == er_build((x * 2).exp(), x).entries

    def test_binomial_cubed(self):
        n = 6
        b = er_build(*named_pair("binomial", n))
        x = Series.x(n)
        assert er_power(b, 3).entries == er_build((x * 3).exp(), x).entries

    def test_thm1_factorization(self):
        # [1, e^x-1] * [e^{zx}, x] = [e^{z(e^x-1)}, e^x-1]
        n = 6
        stirling = er_build(*named_pair("stirling2", n))
        x = Series.x(n)
        right = er_build((x * Z).exp(), x)
        thm1 = er_build(*named_pair("thm1", n))
        assert er_mul(stirling, right).entries == thm1.entries

    def test_identity_neutral(self):
        n = 5
        a = er_build(*named_pair("laguerre", n))
        assert er_mul(a, identity(n)).entries == a.entries
        assert er_mul(identity(n), a).entries == a.entries

    def test_mul_matches_matrix_product(self):
        rng = random.Random(31)
        n = 6
        for _ in range(5):
            a = er_build(*random_pair(rng, n, with_z=True))
            b = er_build(*random_pair(rng, n))
            assert er_mul(a, b).entries == matrix_product(a.entries, b.entries)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            er_mul(identity(4), identity(5))


class TestInverse:
    def test_thm1_inverse_closed_form(self):
        n = 8
        a = er_build(*named_pair("thm1", n))
        x = Series.x(n)
        expected = er_build((x * (-1) * Z).exp(), (Series.one(n) + x).log())
        assert er_inverse(a).entries == expected.entries

    def test_laguerre_inverse_signed(self):
        n = 6
        a = er_build(*named_pair("laguerre", n))
        inv = er_inverse(a)
        for r in range(n + 1):
            for k in range(r + 1):
                expected = Scalar(
                    (-1) ** (r - k) * (factorial(r) // factorial(k)) * comb(r, k)
                )
                assert inv.entries[r][k] == expected

    def test_identity_self_inverse(self):
        assert er_inverse(identity(5)).entries == identity(5).entries

    def test_matches_matrix_inverse(self):
        n = 6
        a = er_build(*named_pair("thm2", n))
        assert er_inverse(a).entries == invert_lower_triangular(a.entries)

    def test_group_inverse_property(self):
        rng = random.Random(8)
        n = 6
        for _ in range(5):
            a = er_build(*random_pair(rng, n, with_z=True))
            assert er_mul(a, er_inverse(a)).entries == identity(n).entries


class TestApply:
    def test_bell_row_sums(self):
        n = 5
        a = er_build(*named_pair("stirling2", n))
        assert a.row_sums() == tuple(Scalar(v) for v in bell_numbers(n + 1))

    def test_sets_of_lists_row_sums(self):
        n = 5
        a = er_build(*named_pair("sets_of_lists", n))
        assert a.row_sums() == tuple(Scalar(v) for v in (1, 1, 3, 13, 73, 501))

    def test_identity_apply(self):
        n = 4
        u = [Scalar(v) for v in (3, 1, 4, 1, 5)]
        assert er_apply(identity(n), u) == tuple(u)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            er_apply(identity(4), [ONE] * 3)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_dual_routes_on_random_input(self, data):
        # The matrix-vector product equals the e.g.f. route g(x) U(f(x)).
        n = data.draw(st.integers(1, 6))
        a = er_build(*draw_pair(data, n))
        u = data.draw(st.lists(st.one_of(poly_scalars, rational_scalars),
                               min_size=n + 1, max_size=n + 1))
        assert er_apply(a, u) == apply_egf(a, u)


THM1_PRODUCTION = [
    ("z", "1", "0", "0"),
    ("z", "z + 1", "1", "0"),
    ("0", "2*z", "z + 2", "1"),
    ("0", "0", "3*z", "z + 3"),
]

THM2_PRODUCTION = [
    ("z", "1", "0", "0"),
    ("z", "2*z + 1", "1", "0"),
    ("0", "4*z", "3*z + 2", "1"),
    ("0", "0", "9*z", "4*z + 3"),
]


class TestProduction:
    def test_thm1_display(self):
        a = er_build(*named_pair("thm1", 6))
        p = production_from_pair(a)
        got = [tuple(str(e) for e in row[:4]) for row in p.entries[:4]]
        assert got == THM1_PRODUCTION

    def test_thm2_display(self):
        a = er_build(*named_pair("thm2", 6))
        p = production_from_pair(a)
        got = [tuple(str(e) for e in row[:4]) for row in p.entries[:4]]
        assert got == THM2_PRODUCTION

    def test_laguerre_display(self):
        a = er_build(*named_pair("laguerre", 6))
        p = production_from_pair(a)
        displayed = [
            (1, 1, 0, 0), (1, 3, 1, 0), (0, 4, 5, 1), (0, 0, 9, 7),
        ]
        got = [tuple(p.entries[i][j] for j in range(4)) for i in range(4)]
        assert got == [tuple(Scalar(v) for v in row) for row in displayed]

    def test_charlier_inverse_display(self):
        a = er_inverse(er_build(*named_pair("charlier", 6)))
        p = production_from_pair(a)
        displayed = [
            (-1, 1, 0, 0), (1, -2, 1, 0), (0, 2, -3, 1), (0, 0, 3, -4),
        ]
        got = [tuple(p.entries[i][j] for j in range(4)) for i in range(4)]
        assert got == [tuple(Scalar(v) for v in row) for row in displayed]

    def test_direct_identity_is_shift(self):
        n = 5
        p = production_direct(identity(n))
        for i in range(n):
            for j in range(n + 1):
                expected = ONE if j == i + 1 else ZERO
                assert p.entries[i][j] == expected

    def test_direct_lah_like(self):
        # Entries are pinned by the generating function e^{tw}(1/(1-w) + t):
        # the array itself plus a unit superdiagonal.  The production matrix
        # must regenerate the array row by row, which anchors the value.
        n = 6
        a = er_build(*named_pair("lah_like", n))
        p = production_direct(a)
        for i in range(n):
            for j in range(n + 1):
                if j <= i:
                    expected = Scalar(factorial(i) // factorial(j))
                elif j == i + 1:
                    expected = ONE
                else:
                    expected = ZERO
                assert p.entries[i][j] == expected
        row = [ONE] + [ZERO] * n
        for i in range(n):
            row = [
                sum((row[k] * p.entries[k][j] for k in range(n + 1)), ZERO)
                for j in range(n + 1)
            ]
            assert tuple(row) == a.entries[i + 1]

    def test_methods_agree_on_named_pairs(self):
        for name in ("thm1", "thm2", "laguerre", "sets_of_lists", "charlier"):
            a = er_build(*named_pair(name, 6))
            assert production_from_pair(a).entries == production_direct(a).entries

    def test_methods_agree_on_random_pairs(self):
        rng = random.Random(2718)
        n = 6
        for _ in range(8):
            a = er_build(*random_pair(rng, n, with_z=True))
            p1 = production_from_pair(a)
            p2 = production_direct(a)
            p3 = production_bivariate_gf(a)
            assert p1.entries == p2.entries == p3.entries

    def test_bivariate_gf_components(self):
        # thm1: c(w) = z(1 + w), r(w) = 1 + w
        a = er_build(*named_pair("thm1", 6))
        c, r = production_cr(a)
        assert c.coeffs[:3] == (Z, Z, ZERO)
        assert r.coeffs[:3] == (ONE, ONE, ZERO)

    def test_bivariate_gf_components_thm2(self):
        # thm2: c(w) = z(1 + w), r(w) = (1 + w)(1 + zw)
        a = er_build(*named_pair("thm2", 6))
        c, r = production_cr(a)
        assert c.coeffs[:3] == (Z, Z, ZERO)
        assert r.coeffs[:4] == (ONE, Z + 1, Z, ZERO)

    def test_bivariate_gf_lah_like(self):
        # phi = e^{tw}(1/(1-w) + t): c is the geometric series, r is 1
        a = er_build(*named_pair("lah_like", 6))
        c, r = production_cr(a)
        assert all(coef == ONE for coef in c.coeffs)
        assert r.coeffs == (ONE,) + (ZERO,) * 5


class TestExtractJacobi:
    def test_thm1(self):
        a = er_build(*named_pair("thm1", 6))
        params = extract_jacobi(production_from_pair(a))
        assert params.alpha == tuple(Z + n for n in range(6))
        assert params.beta == tuple(Z * n for n in range(1, 6))

    def test_thm2(self):
        a = er_build(*named_pair("thm2", 6))
        params = extract_jacobi(production_from_pair(a))
        assert params.alpha == tuple(Z * (n + 1) + n for n in range(6))
        assert params.beta == tuple(Z * (n * n) for n in range(1, 6))

    def test_not_tridiagonal(self):
        a = er_build(*named_pair("lah_like", 6))
        with pytest.raises(ValueError, match=r"not tridiagonal: offending entry \(2, 0\)"):
            extract_jacobi(production_from_pair(a))

    def test_not_monic_form(self):
        n = 5
        x = Series.x(n)
        # [1, 2x] has superdiagonal 2 in its production matrix
        a = er_build(Series.one(n), x * 2)
        with pytest.raises(ValueError, match="not monic form"):
            extract_jacobi(production_from_pair(a))


class TestStructuralIdentities:
    def test_three_term_recurrence_from_inverse(self):
        n = 8
        a = er_build(*named_pair("thm1", n))
        params = extract_jacobi(production_from_pair(a))
        inv = er_inverse(a).entries
        for m in range(1, n - 1):
            shifted = (ZERO,) + inv[m][:n]
            expected = tuple(
                shifted[k] - params.alpha[m] * inv[m][k]
                - (params.beta[m - 1] * inv[m - 1][k] if m >= 1 else ZERO)
                for k in range(n + 1)
            )
            assert inv[m + 1] == expected

    def test_factorization_identity(self):
        n = 8
        a = er_build(*named_pair("thm1", n))
        for r in range(n + 1):
            for k in range(r + 1):
                expected = sum(
                    (Scalar(stirling2(r, j) * comb(j, k)) * Z ** (j - k)
                     for j in range(k, r + 1)),
                    ZERO,
                )
                assert a.entries[r][k] == expected

    def test_specialization_commutes_thm2(self):
        n = 8
        a = er_build(*named_pair("thm2", n))
        specialized = a.eval_z(1)
        laguerre = er_build(*named_pair("laguerre", n))
        assert specialized.entries == laguerre.entries

    def test_specialization_commutes_random(self):
        rng = random.Random(6)
        n = 6
        for _ in range(4):
            a = er_build(*random_pair(rng, n, with_z=True))
            direct = tuple(
                tuple(Scalar(e.eval_z(2)) for e in row) for row in a.entries
            )
            assert a.eval_z(2).entries == direct

    def test_inverse_entries_match_matrix_route(self):
        n = 6
        a = er_build(*named_pair("laguerre", n))
        lower = invert_lower_triangular(a.entries)
        assert er_inverse(a).entries == lower


def draw_pair(data, n):
    """A valid pair with z-polynomial coefficients and rational f'(0).

    g and f are cut to random degrees, so that the two series composed over
    one shared powers table need tables of different lengths.
    """
    g = data.draw(series_of(poly_scalars, n)).coeffs
    f = data.draw(series_of(poly_scalars, n, lead=rational_leads)).coeffs
    dg, df = data.draw(st.integers(0, n)), data.draw(st.integers(1, n))
    return (Series((ONE,) + g[1:dg + 1] + (ZERO,) * (n - dg)),
            Series(f[:df + 1] + (ZERO,) * (n - df)))


class TestAgainstOracles:
    """Shared powers tables give what separate Horner/Newton calls give."""

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_mul_matches_horner(self, data):
        n = data.draw(st.integers(1, 6))
        (g, f), (h, l) = draw_pair(data, n), draw_pair(data, n)
        expected = er_build(g * compose_horner(h, f), compose_horner(l, f))
        assert er_mul(er_build(g, f), er_build(h, l)) == expected

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_production_cr_matches_newton(self, data):
        n = data.draw(st.integers(1, 6))
        g, f = draw_pair(data, n)
        fbar = revert_newton(f).truncate(n - 1)
        c = compose_horner(g.derivative() / g.truncate(n - 1), fbar)
        r = compose_horner(f.derivative(), fbar)
        assert production_cr(er_build(g, f)) == (c, r)
