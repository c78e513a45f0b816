from __future__ import annotations

import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erarray import series
from erarray.expr import parse_series
from erarray.scalars import ONE, ZERO, Scalar, Z
from erarray.sequences import NAMED_PAIR_NAMES, named_pair
from erarray.series import Series, _rational_form

from oracles import (
    ORACLE_SETTINGS,
    compose_by_powers,
    compose_horner,
    eval_z_by_scalars,
    one_factor_rationals,
    over_scalars,
    poly_scalars,
    random_pair,
    random_series,
    rational_leads,
    rational_scalars,
    revert_by_powers,
    revert_newton,
    series_of,
    series_str_by_parts,
    zfree_scalars,
    zfree_series,
)

# Rational constants up to order 12, z-polynomial coefficients up to order
# 8, rational functions of z up to order 6, f'(0) a rational: the Newton
# oracle takes seconds to minutes per case beyond that.
COEFFICIENT_KINDS = pytest.mark.parametrize(
    "scalars, max_order", [(zfree_scalars, 12), (poly_scalars, 8), (rational_scalars, 6)],
    ids=["z-free", "polynomial", "rational"],
)


def scal(*vals):
    return [Scalar._coerce(v) for v in vals]


def geometric(order):
    return Series.one(order) / (Series.one(order) - Series.x(order))


class TestMul:
    def test_one_minus_x_squared(self):
        n = 4
        one, x = Series.one(n), Series.x(n)
        assert ((one + x) * (one - x)).coeffs == tuple(scal(1, 0, -1, 0, 0))

    def test_geometric_times_complement(self):
        n = 6
        assert geometric(n) * (Series.one(n) - Series.x(n)) == Series.one(n)

    def test_exp_times_exp_neg(self):
        n = 6
        x = Series.x(n)
        assert x.exp() * (-x).exp() == Series.one(n)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            Series.one(3) * Series.one(4)


class TestDiv:
    def test_unit_division(self):
        n = 4
        x = Series.x(n)
        assert (x + x * x) / (Series.one(n) + x) == x

    def test_thm2_f_quotient(self):
        # (e^x - e^{zx}) / (e^{zx} - z e^x), frozen from the series oracle
        n = 3
        x = Series.x(n)
        num = x.exp() - (x * Z).exp()
        den = (x * Z).exp() - x.exp() * Z
        f = num / den
        assert f.coeffs[0] == ZERO
        assert f.coeffs[1] == ONE
        assert f.coeffs[2] == (Z + 1) / 2
        assert f.coeffs[3] == (Z * Z + 4 * Z + 1) / 6

    def test_geometric(self):
        assert geometric(3).coeffs == tuple(scal(1, 1, 1, 1))

    def test_valuation_cancellation(self):
        n = 5
        x = Series.x(n)
        q = (x + x * x) / x
        assert q.order == n - 1
        assert q.coeffs == tuple(scal(1, 1, 0, 0, 0))

    def test_zero_numerator(self):
        q = Series.zero(4) / Series.x(4)
        assert q.order == 3 and q.is_zero

    def test_no_common_factor(self):
        with pytest.raises(ValueError, match="unit or common factor"):
            Series.one(4) / Series.x(4)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Series.one(4) / Series.zero(4)


class TestCompose:
    def test_identity_inner(self):
        n = 5
        g = Series(scal(1, 2, 3, 4, 5, 6))
        assert g.compose(Series.x(n)) == g

    def test_exp_of_log(self):
        n = 5
        one_plus_x = Series.one(n) + Series.x(n)
        assert one_plus_x.log().exp() == one_plus_x

    def test_classic_reversion_pair(self):
        n = 6
        x = Series.x(n)
        f = x.exp() - 1
        log1p = (Series.one(n) + x).log()
        assert f.compose(log1p) == x

    def test_requires_valuation(self):
        with pytest.raises(ValueError, match="valuation >= 1"):
            Series.one(3).compose(Series.one(3))
        with pytest.raises(ValueError, match="valuation >= 1"):
            Series.x(3).compose(Series.constant(Z, 3))

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            Series.one(3).compose(Series.x(4))

    def test_zero_inner_gives_the_constant(self):
        n = 5
        g = Series(scal(Fraction(-5, 2), 2, 1, 0, 0, 7))
        got = on_both_routes(Series.compose, g, Series.zero(n))
        assert got == Series.constant(Fraction(-5, 2), n)
        gz = Series(scal(Z, 1, Z, 0, 0, 1))
        assert gz.compose(Series.zero(n)) == Series.constant(Z, n)

    def test_constant_and_zero_outer(self):
        n = 5
        for inner in (Series.x(n).exp() - 1, Series.x(n) * Z):
            for outer in (Series.constant(Fraction(-5, 2), n), Series.constant(Z, n),
                          Series.zero(n)):
                assert outer.compose(inner) == outer
        assert on_both_routes(Series.compose, Series.zero(n), Series.x(n).exp() - 1).is_zero

    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    @pytest.mark.parametrize("with_z", [False, True], ids=["z-free", "z"])
    def test_builds_only_the_columns_it_reads(self, monkeypatch, degree, with_z):
        # A polynomial outer of degree d reads the columns inner^0..inner^d.
        n = 8
        built = []
        columns_of = series._columns_of

        def counting(f, top):
            cols = columns_of(f, top)
            built.append(len(cols))
            return cols

        monkeypatch.setattr(series, "_columns_of", counting)
        outer = Series(scal(*range(1, degree + 2)) + [ZERO] * (n - degree))
        inner = Series.x(n).exp() - 1
        if with_z:
            inner = inner * Z
        assert outer.compose(inner) == compose_horner(outer, inner)
        assert built == [degree + 1]


class TestColumnProducts:
    """The columns f^k of [1, f] start from f itself: over Q(z), a
    composition with an outer of degree d takes d - 1 series products, not
    one per column, and a reversion at order n takes n - 2, since its last
    column f^n is the monomial f_1^n x^n."""

    @staticmethod
    def _products(monkeypatch, op, *args) -> int:
        calls = []
        real = Series.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Series, "__mul__", counting)
        op(*args)
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_compose(self, monkeypatch, degree):
        n = 6
        inner = (Series.x(n).exp() - 1) * Z
        outer = Series(scal(*range(1, degree + 2)) + [ZERO] * (n - degree))
        assert self._products(monkeypatch, Series.compose, outer, inner) == degree - 1
        assert outer.compose(inner) == compose_horner(outer, inner)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_revert(self, monkeypatch, n):
        f = Series([ZERO, ONE + Z] + [Z / (Z + k) for k in range(1, n)])
        assert self._products(monkeypatch, Series.revert, f) == max(n - 2, 0)
        assert f.revert() == revert_newton(f)


class TestRevert:
    def test_x(self):
        assert Series.x(5).revert() == Series.x(5)

    def test_exp_minus_one(self):
        f = Series.x(5).exp() - 1
        expected = [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
                    Fraction(1, 5)]
        assert f.revert().coeffs == tuple(scal(*expected))

    def test_x_over_one_minus_x(self):
        n = 5
        f = Series.x(n) * geometric(n)
        assert f.revert().coeffs == tuple(scal(0, 1, -1, 1, -1, 1))

    def test_not_revertible(self):
        with pytest.raises(ValueError, match="not revertible"):
            Series.one(4).revert()
        with pytest.raises(ValueError, match="not revertible"):
            (Series.x(4) * Series.x(4)).revert()


class TestExpLog:
    def test_exp_zero(self):
        assert Series.zero(4).exp() == Series.one(4)

    def test_log_exp_zx(self):
        n = 4
        zx = Series.x(n) * Z
        assert zx.exp().log() == zx

    def test_exp_of_z_times_expm1(self):
        # e^{z(e^x-1)} to order 3: 1, z, (z^2+z)/2, (z^3+3z^2+z)/6
        n = 3
        f = Series.x(n).exp() - 1
        g = (f * Z).exp()
        assert g.coeffs[0] == ONE
        assert g.coeffs[1] == Z
        assert g.coeffs[2] == (Z * Z + Z) / 2
        assert g.coeffs[3] == (Z**3 + 3 * Z**2 + Z) / 6

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            Series.one(3).exp()

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="unit constant term"):
            Series.x(3).log()


class TestDerivative:
    def test_power(self):
        x = Series.x(4)
        assert (x * x).derivative() == Series(scal(0, 2, 0, 0))

    def test_exp(self):
        n = 5
        e = Series.x(n).exp()
        assert (e - 1).derivative() == e.truncate(n - 1)

    def test_thm2_f_has_unit_slope(self):
        n = 4
        x = Series.x(n)
        f = (x.exp() - (x * Z).exp()) / ((x * Z).exp() - x.exp() * Z)
        assert f.derivative().coeffs[0] == ONE


class TestProperties:
    def test_revert_round_trip(self):
        rng = random.Random(1234)
        n = 8
        x = Series.x(n)
        for _ in range(10):
            _, f = random_pair(rng, n, with_z=True)
            fbar = f.revert()
            assert f.compose(fbar) == x
            assert fbar.compose(f) == x

    def test_exp_log_inverse(self):
        rng = random.Random(77)
        n = 8
        for _ in range(10):
            a = random_series(rng, n, with_z=True)
            a = Series((ZERO,) + a.coeffs[1:])
            assert a.exp().log() == a
            u = Series((ONE,) + a.coeffs[1:])
            assert u.log().exp() == u

    def test_leibniz(self):
        rng = random.Random(4321)
        n = 7
        for _ in range(10):
            a = random_series(rng, n, with_z=True)
            b = random_series(rng, n)
            lhs = (a * b).derivative()
            rhs = a.derivative() * b.truncate(n - 1) + a.truncate(n - 1) * b.derivative()
            assert lhs == rhs

    def test_mul_commutative_associative(self):
        rng = random.Random(5)
        n = 6
        for _ in range(8):
            a = random_series(rng, n, with_z=True)
            b = random_series(rng, n, with_z=True)
            c = random_series(rng, n)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestAgainstOracles:
    """Composition and reversion on the array kernels equal Horner
    composition and Newton reversion, and both routes over a table of
    powers."""

    @COEFFICIENT_KINDS
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_compose_matches_horner(self, scalars, max_order, data):
        n = data.draw(st.integers(1, max_order))
        inner = data.draw(series_of(scalars, n, lead=scalars))
        outer = data.draw(series_of(scalars, n))
        got = outer.compose(inner)
        assert got == compose_horner(outer, inner)
        assert got == compose_by_powers(outer, inner)

    @COEFFICIENT_KINDS
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_revert_matches_newton(self, scalars, max_order, data):
        n = data.draw(st.integers(1, max_order))
        f = data.draw(series_of(scalars, n, lead=rational_leads))
        got = f.revert()
        assert got == revert_newton(f)
        assert got == revert_by_powers(f)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_revert_matches_newton_z_lead(self, data):
        # f'(0) a function of z puts its powers in every denominator; the
        # Newton oracle's cost grows fastest with the order, so it stops at 5.
        n = data.draw(st.integers(1, 5))
        f = data.draw(series_of(rational_scalars, n, lead=rational_scalars))
        got = f.revert()
        assert got == revert_newton(f)
        assert got == revert_by_powers(f)


class TestPower:
    """Binary powering starts from the lowest set bit of the exponent and
    squares no further than its highest."""

    @pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (5, 3), (6, 3), (-1, 0),
                                             (-2, 1)])
    def test_product_count(self, monkeypatch, e, products):
        g = geometric(6)
        calls = []
        real = Series.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Series, "__mul__", counting)
        g ** e
        assert len(calls) == products

    @pytest.mark.parametrize("scalars, max_order", [(zfree_scalars, 12), (poly_scalars, 6),
                                                    (rational_scalars, 4)],
                             ids=["z-free", "polynomial", "rational"])
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_matches_repeated_products(self, scalars, max_order, data):
        n = data.draw(st.integers(0, max_order))
        e = data.draw(st.integers(-3, 7))
        a = data.draw(series_of(scalars, n))
        if e < 0 and a.coefficient(0).is_zero:
            a = a + 1
        base = a if e >= 0 else Series.one(n) / a
        expected = Series.one(n)
        for _ in range(abs(e)):
            expected = expected * base
        assert a ** e == expected


def on_both_routes(op, *operands):
    """op on z-free operands, once on their integer form and once on the
    same coefficients over Scalars; the results must be equal, and the
    first must hold the canonical integer form of its coefficients."""
    assert all(s._q is not None for s in operands)
    result = op(*operands)
    expected = op(*(over_scalars(s) for s in operands))
    assert result._q is not None
    assert result.coeffs == expected.coeffs
    assert result._q == _rational_form(result.coeffs)
    return result


_orders = st.integers(0, 32)
_nonzero = zfree_scalars.filter(bool)


class TestIntegerForm:
    """Every operation on z-free series runs on ints and equals the route
    over Scalars, which z-free series took before, as the oracle."""

    def test_leaves_and_constructor_hold_the_form(self):
        x = Series.x(3)
        assert x._q == (1, [0, 1, 0, 0])
        assert Series.constant(Fraction(-5, 2), 2)._q == (2, [-5, 0, 0])
        assert Series([Fraction(1, 3), Fraction(1, 6), 0])._q == (6, [2, 1, 0])
        assert Series([ONE, Z])._q is None
        assert Series.constant(Z, 2)._q is None
        # The Scalars are built on first read, once.
        assert x.coeffs is x.coeffs

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_sums_and_truncation(self, data):
        n = data.draw(_orders)
        a, b = data.draw(zfree_series(n)), data.draw(zfree_series(n))
        on_both_routes(lambda a, b: a + b, a, b)
        on_both_routes(lambda a, b: a - b, a, b)
        on_both_routes(lambda a: -a, a)
        m = data.draw(st.integers(0, n))
        on_both_routes(lambda a: a.truncate(m), a)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_product(self, data):
        n = data.draw(_orders)
        on_both_routes(lambda a, b: a * b, data.draw(zfree_series(n)),
                       data.draw(zfree_series(n)))

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_quotient(self, data):
        n = data.draw(_orders)
        a = data.draw(zfree_series(n))
        b = data.draw(zfree_series(n, constant=_nonzero))
        on_both_routes(lambda a, b: a / b, a, b)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_valuation_cancelling_quotient(self, data):
        n = data.draw(st.integers(1, 32))
        v = data.draw(st.integers(1, min(n, 4)))
        a = data.draw(zfree_series(n, data.draw(st.integers(v, n))))
        b = data.draw(zfree_series(n, v, constant=_nonzero))
        assert on_both_routes(lambda a, b: a / b, a, b).order == n - v

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_power(self, data):
        n = data.draw(_orders)
        e = data.draw(st.integers(-3, 4))
        a = data.draw(zfree_series(n, constant=_nonzero if e < 0 else None))
        on_both_routes(lambda a: a ** e, a)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_exp_and_log(self, data):
        n = data.draw(_orders)
        a = data.draw(zfree_series(n, min(n, 1)))
        if n == 0:
            a = Series.zero(0)
        e = on_both_routes(Series.exp, a)
        on_both_routes(Series.log, data.draw(zfree_series(n, constant=st.just(ONE))))
        assert on_both_routes(Series.log, e) == a

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_derivative_integral_and_scale(self, data):
        n = data.draw(_orders)
        a = data.draw(zfree_series(n))
        on_both_routes(Series.derivative, a)
        on_both_routes(Series.integral, a)
        factor = data.draw(st.one_of(zfree_scalars, st.integers(-3, 3),
                                     st.sampled_from([Fraction(-5, 2), Fraction(1, 3)])))
        on_both_routes(lambda a: a.scale(factor), a)
        on_both_routes(lambda a: a * factor, a)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_compose_and_revert(self, data):
        n = data.draw(st.integers(1, 32))
        outer = data.draw(zfree_series(n))
        inner = data.draw(zfree_series(n, 1))
        on_both_routes(Series.compose, outer, inner)
        f = data.draw(zfree_series(n, 1, constant=_nonzero))
        g = on_both_routes(Series.revert, f)
        assert f.compose(g) == Series.x(n)

    def test_z_operand_leaves_the_form(self):
        # exp(z x) exp(x) = exp((z + 1) x): the z-free factor meets z, and
        # the product runs on Scalars.
        n = 6
        got = parse_series("exp(z*x)*exp(x)", n)
        assert got._q is None
        assert got.coeffs == tuple((Z + 1) ** k / factorial(k) for k in range(n + 1))
        x = Series.x(n)
        for mixed in ((x * Z).exp() * x.exp(), x.exp() * (x * Z).exp(), x + Series.constant(Z, n),
                      x.scale(Z), x / (Series.one(n) - x * Z)):
            assert mixed._q is None
        assert x.exp() * (x * Z).exp() == got


class TestLeaves:
    @pytest.mark.parametrize("make", [
        Series.zero, Series.one, lambda n: Series.constant(3, n),
        lambda n: Series.constant(Fraction(-1, 2), n), lambda n: Series.constant(Z + 1, n),
    ], ids=["zero", "one", "int", "Fraction", "Scalar with z"])
    def test_negative_order_raises(self, make):
        for order in (-1, -3):
            with pytest.raises(ValueError, match="needs at least the constant coefficient"):
                make(order)
        assert make(0).order == 0


#: Series coefficients of every kind a text can take: zero, +-1, negative
#: and rational constants, polynomials in z and rational functions of z.
#: Integer, rational, negative and zero values of z, as ints and Fractions;
#: 1 is thm2's value of z and -1 the pole of ``one_factor_rationals``.
_z_values = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
                      st.fractions(-3, 3, max_denominator=4))


class TestEvalZ:
    """Specialisation at z = v on ints equals the route through
    ``Scalar.eval_z``, a Scalar per value and the public constructor."""

    @settings(ORACLE_SETTINGS, max_examples=200)
    @given(data=st.data())
    def test_matches_scalar_route(self, data):
        scalars = data.draw(st.sampled_from([poly_scalars, rational_scalars, one_factor_rationals]))
        s = data.draw(series_of(scalars, data.draw(st.integers(0, 8))))
        v = data.draw(_z_values)
        try:
            expected = eval_z_by_scalars(s, v)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError, match=f"^{re.escape(str(exc))}$"):
                s.eval_z(v)
            return
        got = s.eval_z(v)
        assert got._q is not None
        assert got == expected
        assert got._q == _rational_form(got.coeffs) == expected._q

    @pytest.mark.parametrize("v, text", [(1, "1"), (Fraction(-1, 3), "-1/3"), (0, "0")])
    def test_pole(self, v, text):
        s = Series([ONE, Z, (Z + 2) / ((Z - 1) * (3 * Z + 1) * Z)])
        for route in (Series.eval_z, eval_z_by_scalars):
            with pytest.raises(ZeroDivisionError, match=f"^pole at z = {re.escape(text)}$"):
                route(s, v)

    def test_values(self):
        s = Series([Z / (Z - 1), Scalar(3) / (2 * Z + 1), Z * Z - 3])
        assert s.eval_z(2)._q == (5, [10, 3, 5])
        assert s.eval_z(Fraction(1, 3))._q == (90, [-45, 162, -260])
        assert s.eval_z(-1)._q == (2, [1, -6, -4])


_text_coefficients = st.builds(
    lambda c, sign: c * sign,
    st.one_of(st.sampled_from((ZERO, ONE, Z, Z - 1)), zfree_scalars, poly_scalars,
              rational_scalars),
    st.sampled_from((1, -1)))


class TestStr:
    """``str`` of a series through the term formatter of ``PolyZ`` equals
    the text it had when it joined its own parts."""

    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(order=st.integers(0, 6), data=st.data())
    def test_matches_parts_route(self, order, data):
        for s in (data.draw(zfree_series(order)), data.draw(series_of(_text_coefficients, order))):
            assert str(s) == series_str_by_parts(s)

    def test_texts(self):
        assert str(Series.zero(0)) == "0 + O(x^1)"
        assert str(Series.constant(-Z, 0)) == "-z + O(x^1)"
        assert str(Series.zero(3)) == "0 + O(x^4)"
        assert str(Series([0, 1, -1, Fraction(-1, 2)])) == "x - x^2 - 1/2*x^3 + O(x^4)"
        assert str(Series([-Z - 1, -Z, Z + 1, 1 / (Z + 1)])) == (
            "-z - 1 - z*x + (z + 1)*x^2 + ((1)/(z + 1))*x^3 + O(x^4)")
        assert str(Series([0, -ONE / Z])) == "(-1)/(z)*x + O(x^2)"

    @pytest.mark.parametrize("name", NAMED_PAIR_NAMES)
    def test_named_pairs(self, name):
        for s in named_pair(name, 6):
            assert str(s) == series_str_by_parts(s)
