from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from erarray import riordan, scalars, series
from erarray.expr import parse_series
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
from erarray.scalars import ONE, POLY_ONE, ZERO, Scalar, Z
from erarray.sequences import named_pair, stirling2
from erarray.series import Series

from oracles import (
    ORACLE_SETTINGS,
    apply_by_rows,
    apply_egf,
    bell_numbers,
    compose_horner,
    er_build_by_series_products,
    er_build_over_scalars,
    er_inverse_by_reversion,
    er_mul_by_powers,
    eval_z_by_entries,
    invert_lower_by_columns,
    matrix_product,
    one_factor_rationals,
    over_scalars,
    poly_scalars,
    production_bivariate_gf,
    production_cr_by_reversion,
    random_pair,
    rational_leads,
    rational_scalars,
    revert_newton,
    series_of,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import F_TEMPLATES, G_TEMPLATES  # noqa: E402

ZFREE_NAMED = ("stirling2", "binomial", "lah_like", "sets_of_lists", "laguerre", "charlier")

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


# Rationals with denominators up to 4 (-5/2 and 1/3 among them), and
# scalars that have z in them: z-polynomials and rational functions of z.
_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(Scalar)
_with_z = st.one_of(
    poly_scalars.filter(lambda c: c.num.degree >= 1),
    rational_scalars.filter(lambda c: not c.is_polynomial),
)


def draw_rational_pair(data, n):
    """A valid z-free pair: any nonzero g(0) and f'(0), and zeros drawn into
    both series, so that sparse f such as x + x^3 come up."""
    nonzero = _rationals.filter(bool)
    g = [data.draw(nonzero)] + data.draw(st.lists(_rationals, min_size=n, max_size=n))
    f = [ZERO, data.draw(nonzero)] + data.draw(
        st.lists(st.one_of(st.just(ZERO), _rationals), min_size=n - 1, max_size=n - 1))
    return g, f


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

    # Both routes of the column chain give what n full series products give.
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_rational_pairs_match_series_products(self, data):
        n = data.draw(st.integers(1, 24))
        g, f = (Series(c) for c in draw_rational_pair(data, n))
        a = er_build(g, f)
        assert all(col._q for col in a._columns)
        assert a.entries == er_build_by_series_products(g, f).entries
        for r, row in enumerate(a.entries):
            for k, e in enumerate(row):
                assert e.den is POLY_ONE and e.num.degree <= 0
                if e.is_zero or k > r:
                    assert e == ZERO

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_pairs_with_z_match_series_products(self, data):
        # z in g only, in f only, or only in the last coefficient of one.
        n = data.draw(st.integers(1, 12))
        g, f = draw_rational_pair(data, n)
        where = data.draw(st.sampled_from(["g", "f", "last of g", "last of f"]))
        target = g if where.endswith("g") else f
        lowest = n if where.startswith("last") else (0 if target is g else 1)
        target[data.draw(st.integers(lowest, n))] = data.draw(_with_z)
        g, f = Series(g), Series(f)
        a = er_build(g, f)
        assert not any(col._q for col in a._columns[1:])
        assert a.entries == er_build_by_series_products(g, f).entries

    def test_rational_pairs_make_no_series_product(self, monkeypatch):
        pairs = [named_pair(name, 12) for name in
                 ("stirling2", "binomial", "lah_like", "sets_of_lists", "laguerre",
                  "charlier")]
        x = Series.x(9)
        pairs += [(Series.constant(Fraction(-5, 2), 9) + x * Fraction(1, 3), x * 3 + x ** 3),
                  (Series.constant(Fraction(1, 3), 9) - x ** 2, x + x ** 3)]
        expected = [er_build_by_series_products(g, f).entries for g, f in pairs]

        def refuse(*args):
            raise AssertionError("a z-free pair fell back to series products")

        monkeypatch.setattr(Series, "__mul__", refuse)
        assert [er_build(g, f).entries for g, f in pairs] == expected


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

    def test_never_composes(self, monkeypatch):
        # The group law reads the left factor's rows; no powers table of f.
        a = er_build(*named_pair("thm2", 6))
        b = er_build(*named_pair("charlier", 6))
        expected = er_mul_by_powers(a, b)
        calls = []
        monkeypatch.setattr(Series, "compose", lambda *args: calls.append("compose"))
        # A copy of _powers imported by name into riordan would bypass the
        # patch of series._powers, so any such copy is patched too.
        for module in (series, riordan):
            monkeypatch.setattr(module, "_powers", lambda *args: calls.append("_powers"),
                                raising=False)
        assert er_mul(a, b) == expected
        er_power(a, 3)
        er_power(b, -2)
        assert calls == []


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
        assert er_inverse(a).entries == invert_lower_by_columns(a.entries)

    def test_group_inverse_property(self):
        rng = random.Random(8)
        n = 6
        for _ in range(5):
            a = er_build(*random_pair(rng, n, with_z=True))
            assert er_mul(a, er_inverse(a)).entries == identity(n).entries

    def test_never_reverts(self, monkeypatch):
        calls = []
        for name in ("revert", "compose"):
            monkeypatch.setattr(Series, name, lambda *args, name=name: calls.append(name))
        a = er_build(*named_pair("thm2", 6))
        inv = er_inverse(a)
        production_from_pair(a)
        production_from_pair(inv)
        # fbar of the inverse is the integral of its 1/r, which is f again.
        assert inv.fbar == a.f
        assert er_inverse(inv).entries == a.entries
        assert calls == []

    def test_production_series_built_once_per_array(self, monkeypatch):
        solves = []
        solve = riordan._solve_columns

        def counted(cols, rhss):
            solves.append(rhss)
            return solve(cols, rhss)

        monkeypatch.setattr(riordan, "_solve_columns", counted)
        # An array over Q(z) and a z-free one.
        for name in ("thm2", "laguerre"):
            solves.clear()
            a = er_build(*named_pair(name, 6))
            inv = er_inverse(a)
            c, r = production_cr(a)
            assert len(solves) == 1 and len(solves[0]) == 2
            assert a.fbar == inv.f and production_cr(a) == (c, r)
            er_inverse(a)
            production_from_pair(a)
            assert len(solves) == 1 and production_cr(a)[0] is c and production_cr(a)[1] is r
            # The inverse is another array: its own c and r, solved once.
            assert production_cr(inv) == production_cr(inv)
            er_inverse(inv)
            assert len(solves) == 2


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

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_matches_product_by_rows(self, data):
        # Over Q(z): g and f drawn from rational functions of z.
        n = data.draw(st.integers(1, 6))
        a = er_build(*draw_general_pair(data, n, rational_scalars, rational_scalars))
        u = data.draw(st.lists(st.one_of(poly_scalars, rational_scalars),
                               min_size=n + 1, max_size=n + 1))
        assert er_apply(a, u) == apply_by_rows(a, u)


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

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_specialization_commutes_random(self, data):
        # Specialising the pair and then building is specialising each
        # entry, wherever the pair has no pole and stays a valid pair; the
        # specialised array runs on the integer columns.
        scalars, lead = data.draw(st.sampled_from(
            [(poly_scalars, rational_leads), (one_factor_rationals, rational_leads),
             (rational_scalars, rational_leads), (rational_scalars, rational_scalars)]))
        n = data.draw(st.integers(1, 8))
        g, f = draw_general_pair(data, n, scalars, lead)
        # 1 is thm2's value of z and -1 the pole of one_factor_rationals.
        v = data.draw(st.sampled_from([Fraction(1), Fraction(-1)])
                      | st.fractions(-3, 3, max_denominator=4))
        try:
            gv, fv = g.eval_z(v), f.eval_z(v)
        except ZeroDivisionError:
            assume(False)
        assume(not gv.coefficient(0).is_zero and not fv.coefficient(1).is_zero)
        a = er_build(g, f)
        specialized = a.eval_z(v)
        assert all(col._q for col in specialized._columns)
        assert specialized.entries == eval_z_by_entries(a, v)

    @pytest.mark.parametrize("n", [2, 5, 9, 16, 32])
    def test_thm2_inverse_at_one_is_signed_laguerre(self, n):
        # The inverse's f is log((1+zx)/(1+x))/(z-1): each coefficient is a
        # quotient by z - 1 with no pole at 1 once reduced.
        inv = er_inverse(er_build(*named_pair("thm2", n)))
        expected = tuple(
            tuple(Scalar((-1) ** (r - k) * factorial(r) // factorial(k) * comb(r, k))
                  if k <= r else ZERO for k in range(n + 1))
            for r in range(n + 1)
        )
        assert inv.eval_z(1).entries == expected
        if n <= 9:
            assert eval_z_by_entries(inv, 1) == expected

    def test_inverse_entries_match_matrix_route(self):
        n = 6
        a = er_build(*named_pair("laguerre", n))
        lower = invert_lower_by_columns(a.entries)
        assert er_inverse(a).entries == lower


def draw_pair(data, n):
    """A valid pair with z-polynomial coefficients and rational f'(0).

    g and f are cut to random degrees, so that short and sparse series are
    drawn as well as dense ones.
    """
    g = data.draw(series_of(poly_scalars, n)).coeffs
    f = data.draw(series_of(poly_scalars, n, lead=rational_leads)).coeffs
    dg, df = data.draw(st.integers(0, n)), data.draw(st.integers(1, n))
    return (Series((ONE,) + g[1:dg + 1] + (ZERO,) * (n - dg)),
            Series(f[:df + 1] + (ZERO,) * (n - df)))


def draw_general_pair(data, n, scalars, lead):
    """A valid pair over ``scalars`` with any nonzero g(0) and f'(0) from lead."""
    g = data.draw(series_of(scalars, n)).coeffs
    g0 = data.draw(scalars.filter(lambda c: not c.is_zero))
    f = data.draw(series_of(scalars, n, lead=lead))
    return Series((g0,) + g[1:]), f


# Pairs with z-polynomial coefficients, rational functions with one
# denominator factor, or general rational functions of z reach order 12; a
# z-dependent f'(0) stops at order 8, where its denominators have multiplied
# up the most.
PAIR_KINDS = pytest.mark.parametrize(
    "scalars, lead, max_order",
    [(poly_scalars, rational_leads, 12), (one_factor_rationals, rational_leads, 12),
     (rational_scalars, rational_leads, 12), (poly_scalars, poly_scalars, 8),
     (rational_scalars, rational_scalars, 8)],
    ids=["polynomial", "one-factor-rational", "rational", "polynomial-z-lead",
         "rational-z-lead"],
)


class TestAgainstOracles:
    """The group law read off the rows gives what Horner composition and a
    powers table give, and the triangular solves give what composing with
    the reversion gives."""

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

    @PAIR_KINDS
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_solves_match_reversion(self, scalars, lead, max_order, data):
        n = data.draw(st.integers(1, max_order))
        a = er_build(*draw_general_pair(data, n, scalars, lead))
        assert production_cr(a) == production_cr_by_reversion(a)
        assert production_from_pair(a).entries == production_bivariate_gf(a).entries
        assert a.fbar == a.f.revert()
        assert er_inverse(a) == er_inverse_by_reversion(a)

    @PAIR_KINDS
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_mul_matches_powers_table(self, scalars, lead, max_order, data):
        n = data.draw(st.integers(1, max_order))
        a = er_build(*draw_general_pair(data, n, scalars, lead))
        b = er_build(*draw_general_pair(data, n, scalars, lead))
        assert er_mul(a, b) == er_mul_by_powers(a, b)

    @PAIR_KINDS
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_power_matches_repeated_products(self, scalars, lead, max_order, data):
        n = data.draw(st.integers(1, max_order))
        m = data.draw(st.integers(-2, 4))
        a = er_build(*draw_general_pair(data, n, scalars, lead))
        factor = a if m >= 0 else er_inverse(a)
        expected = identity(n)
        for _ in range(abs(m)):
            expected = er_mul_by_powers(expected, factor)
        assert er_power(a, m) == expected


class TestIntegerColumns:
    """On z-free pairs the group law, the solve for c and r and the
    production matrix run on the integer columns, and equal the route over
    Scalars, which such pairs took before, as the oracle."""

    @staticmethod
    def both_routes(data, n):
        g, f = (Series(c) for c in draw_rational_pair(data, n))
        a, a0 = er_build(g, f), er_build_over_scalars(g, f)
        assert all(col._q for col in a._columns)
        assert not any(col._q for col in a0._columns)
        return a, a0

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_group_law(self, data):
        n = data.draw(st.integers(1, 12))
        (a, a0), (b, b0) = self.both_routes(data, n), self.both_routes(data, n)
        ab = er_mul(a, b)
        assert all(col._q for col in ab._columns)
        assert ab.g.coeffs == er_mul(a0, b0).g.coeffs and ab.entries == er_mul(a0, b0).entries
        u = data.draw(st.lists(_rationals, min_size=n + 1, max_size=n + 1))
        assert er_apply(a, u) == er_apply(a0, u)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_inverse_and_production(self, data):
        n = data.draw(st.integers(1, 12))
        a, a0 = self.both_routes(data, n)
        (c, r), (c0, r0) = production_cr(a), production_cr(a0)
        assert c._q is not None and r._q is not None
        assert (c.coeffs, r.coeffs) == (c0.coeffs, r0.coeffs)
        assert a.fbar._q is not None and a.fbar.coeffs == a0.fbar.coeffs
        assert er_inverse(a).entries == er_inverse(a0).entries
        assert production_from_pair(a).entries == production_from_pair(a0).entries

    def test_singular_diagonal(self):
        # er_build rejects g(0) = 0 and f'(0) = 0; a zero diagonal reached
        # past it still fails with the solve's message, on either route.
        g, f = named_pair("laguerre", 4)
        for form in (lambda s: s, over_scalars):
            a = er_build(form(g), form(f))
            a._columns[2] = form(Series.zero(4))
            with pytest.raises(ZeroDivisionError, match=r"singular diagonal entry at \(2, 2\)"):
                production_cr(a)

    def test_no_scalar_kernel_runs(self, monkeypatch):
        n = 12
        pairs = [named_pair(name, n) for name in ZFREE_NAMED]
        pairs += [(parse_series(G_TEMPLATES[i % len(G_TEMPLATES)].format(a=2, b="(-1)", k=2), n),
                   parse_series(f.format(a=-2, b=1), n)) for i, f in enumerate(F_TEMPLATES)]
        expected = []
        for g, f in pairs:
            a0 = er_build_over_scalars(g, f)
            expected.append((a0.entries, er_mul(a0, a0).entries, er_inverse(a0).entries,
                             production_from_pair(a0).entries, a0.row_sums()))

        def refuse(*args):
            raise AssertionError("a z-free array ran a Scalar kernel")

        # The kernels that riordan calls run in series, so a copy imported
        # there by name is patched too.
        for module in (scalars, series):
            for name in ("dot", "solve_lower"):
                monkeypatch.setattr(module, name, refuse)
        for (g, f), want in zip(pairs, expected):
            a = er_build(g, f)
            assert (a.entries, er_mul(a, a).entries, er_inverse(a).entries,
                    production_from_pair(a).entries, a.row_sums()) == want
            production_cr(a)
            a.fbar


class TestMixedRoutes:
    """A z-free array meets a pair or a sequence with z: the kernels fall
    back to Scalars and give what the oracles give."""

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_mul_of_zfree_and_qz_arrays(self, data):
        n = data.draw(st.integers(1, 8))
        a = er_build(*(Series(c) for c in draw_rational_pair(data, n)))
        b = er_build(*draw_general_pair(data, n, one_factor_rationals, rational_leads))
        assert all(col._q for col in a._columns)
        assert er_mul(a, b) == er_mul_by_powers(a, b)
        assert er_mul(b, a) == er_mul_by_powers(b, a)
        assert er_mul(a, b).entries == matrix_product(a.entries, b.entries)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_sequence_with_z_on_zfree_array(self, data):
        n = data.draw(st.integers(1, 8))
        a = er_build(*(Series(c) for c in draw_rational_pair(data, n)))
        u = data.draw(st.lists(st.one_of(_rationals, _with_z), min_size=n + 1, max_size=n + 1))
        assert er_apply(a, u) == apply_by_rows(a, u) == apply_egf(a, u)
