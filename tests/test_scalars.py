from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erarray
from erarray import scalars
from erarray.checks import _hankel_closed_form
from erarray.hankel import det_bareiss, det_scalar, hankel_matrix, hankel_transform
from erarray.orthopoly import (
    JacobiParams,
    MomentSequence,
    invert_lower_triangular,
    jacobi_from_moments,
    moments_from_jacobi,
)
from erarray.riordan import er_apply, er_build
from erarray.scalars import (
    ONE,
    POLY_ONE,
    POLY_Z,
    ZERO,
    PolyZ,
    Scalar,
    Z,
    _clear_denominators,
    _euclid_gcd,
    dot,
    solve_lower,
)
from erarray.sequences import named_pair
from erarray.series import Series

from oracles import (
    ORACLE_SETTINGS,
    FractionPoly,
    divide_by_gcd,
    exact_div_by_divmod,
    invert_lower_by_columns,
    pair_thm2_by_quotient,
    poly_scalars,
    random_fraction,
    rational_scalars,
    scalar_by_cofactors,
    scalar_by_product,
    schoolbook,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Hankel  # noqa: E402


def poly(*coeffs):
    return PolyZ(coeffs)


class TestPolyZ:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert poly(0, 0).coeffs == ()
        assert poly().degree == -1

    def test_divmod_exact(self):
        a = poly(-1, 0, 1)  # z^2 - 1
        b = poly(-1, 1)  # z - 1
        q, r = divmod(a, b)
        assert q == poly(1, 1) and r.is_zero

    def test_divmod_remainder(self):
        q, r = divmod(poly(1, 0, 1), poly(1, 1))
        assert (q * poly(1, 1) + r) == poly(1, 0, 1)

    def test_gcd_monic(self):
        g = PolyZ.gcd(poly(-2, 0, 2), poly(-2, 2))
        assert g == poly(-1, 1)

    def test_exact_div_raises(self):
        with pytest.raises(ArithmeticError):
            poly(1, 1).exact_div(poly(0, 1))
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).exact_div(PolyZ())
        assert PolyZ().exact_div(poly(0, 1)).is_zero

    def test_poly_one_is_the_identity_of_the_product(self):
        p = poly(Fraction(1, 2), -2, 3)
        assert POLY_ONE * p is p and p * POLY_ONE is p
        assert POLY_ONE * POLY_ONE is POLY_ONE

    def test_evaluate(self):
        assert poly(1, 2, 3).evaluate(2) == 17
        assert poly(1, 2, 3).evaluate(Fraction(-1, 2)) == Fraction(3, 4)
        assert poly(Fraction(1, 3), 0, 0, -1).evaluate(Fraction(2, 3)) == Fraction(1, 27)
        assert PolyZ().evaluate(Fraction(5, 7)) == 0

    def test_monomial_power_matches_products(self):
        for base in (poly(0, 0, 0, Fraction(-2, 3)), poly(Fraction(-5, 2)), poly(0, 1),
                     POLY_ONE, PolyZ()):
            product = POLY_ONE
            for e in range(7):
                assert base**e == product
                product = product * base

    def test_monomial_powers_take_no_product(self, deadline):
        # (c z^k)^e = c^e z^(ke), for both signs through Scalar.__pow__;
        # by repeated squaring each of these took seconds.
        with deadline(2.0, "powers of one-term polynomials"):
            assert (Z**65536).num == PolyZ.from_integers([0] * 65536 + [1])
            power = (2 * Z**3) ** 20000
            assert power.num.degree == 60000 and power.num.leading == 2**20000
            inverse = (2 * Z**3) ** -20000
            assert inverse.num == PolyZ.const(Fraction(1, 2**20000))
            assert inverse.den == PolyZ.from_integers([0] * 60000 + [1])


class TestScalarCanonical:
    def test_gcd_reduction(self):
        assert Scalar(poly(-1, 0, 1), poly(-1, 1)) == Z + 1

    def test_monic_denominator(self):
        s = Scalar(poly(1), poly(0, 2))  # 1/(2z)
        assert s.den.leading == 1
        assert s.num == poly(Fraction(1, 2))

    def test_zero_normal_form(self):
        s = Scalar(poly(), poly(2, 3))
        assert s.num.is_zero and s.den == POLY_ONE

    def test_idempotent(self):
        s = Z / (Z + 1)
        again = Scalar(s.num, s.den)
        assert again.num == s.num and again.den == s.den

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            Scalar(poly(1), poly())


class TestScalarArithmetic:
    def test_mul(self):
        assert Z * Z == Scalar(poly(0, 0, 1))

    def test_div_cancels(self):
        assert (Z * Z - 1) / (Z - 1) == Z + 1

    def test_rational_add(self):
        assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            ONE / ZERO

    def test_negative_power(self):
        assert (Z + 1) ** -2 == ONE / ((Z + 1) * (Z + 1))

    def test_int_interop(self):
        assert 1 - Z == Scalar(poly(1, -1))
        assert (2 * Z) / 2 == Z


class TestEvalZ:
    def test_simple(self):
        assert (Z + 1).eval_z(1) == 2

    def test_quadratic(self):
        assert (Z * Z + Z).eval_z(2) == 6

    def test_pole(self):
        with pytest.raises(ZeroDivisionError, match="pole at z = 1"):
            (ONE / (Z - 1)).eval_z(1)

    def test_cancelled_pole_is_fine(self):
        # (z^2-1)/(z-1) reduces to z+1 before evaluation
        assert ((Z * Z - 1) / (Z - 1)).eval_z(1) == 2

    def test_rational_value(self):
        assert ((Z * Z + 1) / (2 * Z - 3)).eval_z(Fraction(1, 2)) == Fraction(-5, 8)
        with pytest.raises(ZeroDivisionError, match="^pole at z = 3/2$"):
            ((Z * Z + 1) / (2 * Z - 3)).eval_z(Fraction(3, 2))


def _random_scalars(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = PolyZ([random_fraction(rng) for _ in range(rng.randint(1, 3))])
        den = PolyZ([random_fraction(rng) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            continue
        out.append(Scalar(num, den))
    return out


class TestFieldAxioms:
    def test_axioms_hold_exactly(self):
        values = _random_scalars(20260808, 12)
        for a in values[:4]:
            for b in values[4:8]:
                for c in values[8:]:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
                    assert a + b == b + a
                    assert a * b == b * a

    def test_inverses(self):
        for a in _random_scalars(7, 10):
            assert a + (-a) == ZERO
            if not a.is_zero:
                assert a * (ONE / a) == ONE

    def test_eval_is_homomorphism(self):
        values = _random_scalars(99, 8)
        v = Fraction(3, 2)
        for a in values[:4]:
            for b in values[4:]:
                try:
                    lhs = (a * b).eval_z(v)
                    rhs = a.eval_z(v) * b.eval_z(v)
                except ZeroDivisionError:
                    continue
                assert lhs == rhs
                assert (a + b).eval_z(v) == a.eval_z(v) + b.eval_z(v)


class TestCanonicalString:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Z**3 + 3 * Z**2 + Z, "z^3 + 3*z^2 + z"),
            (Scalar(Fraction(1, 2)) * Z - 1, "1/2*z - 1"),
            (Z - Z, "0"),
            (Scalar(-1) * Z, "-z"),
            (ONE - Z, "-z + 1"),
            (Scalar(Fraction(-3, 4)), "-3/4"),
            (Z / (Z + 1), "(z)/(z + 1)"),
            ((Z + 2) / (Z**2 - 1), "(z + 2)/(z^2 - 1)"),
            (Scalar(10**30), "1" + "0" * 30),
            (Scalar(-(2**64)), "-18446744073709551616"),
            (Scalar(Fraction(-(10**25), 3**20)), f"-{10**25}/{3**20}"),
            (Z * Fraction(4, 6) - Fraction(10**20, 4), f"2/3*z - {10**20 // 4}"),
            (Scalar(PolyZ([Fraction(-1, 2), 0, 0, Fraction(3, 1)])), "3*z^3 - 1/2"),
        ],
    )
    def test_rendering(self, value, text):
        assert str(value) == text


# Differential tests of the integer-packed PolyZ against FractionPoly, the
# tuple-of-Fractions kernel it replaced.  Coefficient lists are integer
# polynomials of a chosen sign shape times a rational content, sometimes with
# a denominator per term as well.

SHAPES = ("random", "negative", "alternating", "sparse", "edge")


@st.composite
def coefficient_lists(draw, shape, max_degree=40, max_bits=200):
    # One drawn Random builds the list: drawing 41 integers of 200 bits one
    # by one costs hypothesis far more than the arithmetic under test.
    rng = draw(st.randoms(use_true_random=False))
    degree = rng.randint(0, max_degree)
    bits = rng.randint(1, max_bits)
    bound = 1 << bits
    if shape == "edge":
        # Bit-length boundaries: +-2^k and +-(2^k - 1).
        ints = [rng.choice((bound, bound - 1, -bound, 1 - bound)) for _ in range(degree + 1)]
    else:
        ints = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    if shape == "negative":
        ints = [-abs(c) for c in ints]
    elif shape == "alternating":
        ints = [abs(c) if k % 2 == 0 else -abs(c) for k, c in enumerate(ints)]
    elif shape == "sparse":
        ints = [c if rng.random() < 0.5 else 0 for c in ints]
    if ints[-1] == 0:
        ints[-1] = bound
    content = Fraction(rng.choice((-1, 1)) * rng.randint(1, 1 << 64), rng.randint(1, 1 << 64))
    coeffs = [content * c for c in ints]
    if rng.random() < 0.5:
        coeffs = [c / rng.randint(1, 30) for c in coeffs]
    return coeffs


def assert_same(poly: PolyZ, ref: FractionPoly):
    """Equal coefficients, and the canonical form of ref's coefficients."""
    assert isinstance(poly, PolyZ)
    assert poly.coeffs == ref.coeffs
    rebuilt = PolyZ(ref.coeffs)
    assert poly == rebuilt and hash(poly) == hash(rebuilt)


class TestAgainstFractionPoly:
    # Multiplication and division run each shape; the other operations
    # draw the shape, which keeps the oracle's cost down.
    @pytest.mark.parametrize("shape", SHAPES)
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_ring_operations(self, shape, data):
        ca = data.draw(coefficient_lists(shape))
        cb = data.draw(coefficient_lists(shape))
        a, b, fa, fb = PolyZ(ca), PolyZ(cb), FractionPoly(ca), FractionPoly(cb)
        assert_same(a, fa)
        assert_same(a + b, fa + fb)
        assert_same(a - b, fa - fb)
        assert_same(-a, -fa)
        assert_same(a * b, fa * fb)
        assert_same(a - a, fa - fa)
        assert_same(3 - a, 3 - fa)
        assert_same(a + Fraction(1, 3), fa + Fraction(1, 3))
        factor = data.draw(st.fractions(max_denominator=1 << 40))
        assert_same(a.scale(factor), fa.scale(factor))
        assert_same(a * factor, fa * factor)
        cc = data.draw(coefficient_lists(shape, max_degree=12))
        e = data.draw(st.integers(0, 3))
        assert_same(PolyZ(cc) ** e, FractionPoly(cc) ** e)

    @pytest.mark.parametrize("shape", SHAPES)
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_division(self, shape, data):
        ca = data.draw(coefficient_lists(shape))
        cb = data.draw(coefficient_lists(shape, max_degree=25))
        a, b, fa, fb = PolyZ(ca), PolyZ(cb), FractionPoly(ca), FractionPoly(cb)
        q, r = divmod(a, b)
        fq, fr = divmod(fa, fb)
        assert_same(q, fq)
        assert_same(r, fr)
        assert_same(a % b, fa % fb)
        assert_same((a * b).exact_div(b), fa)
        if fr.is_zero:
            assert_same(a.exact_div(b), fa.exact_div(fb))
        else:
            with pytest.raises(ArithmeticError):
                a.exact_div(b)
            with pytest.raises(ArithmeticError):
                fa.exact_div(fb)
        with pytest.raises(ZeroDivisionError):
            divmod(a, PolyZ())

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_gcd_and_monic(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        cg = data.draw(coefficient_lists(shape, max_degree=12, max_bits=40))
        cu = data.draw(coefficient_lists(shape, max_degree=14, max_bits=40))
        cv = data.draw(coefficient_lists(shape, max_degree=14, max_bits=40))
        g, fg = PolyZ(cg), FractionPoly(cg)
        a, fa = g * PolyZ(cu), fg * FractionPoly(cu)
        b, fb = g * PolyZ(cv), fg * FractionPoly(cv)
        assert_same(PolyZ.gcd(a, b), FractionPoly.gcd(fa, fb))
        assert_same(PolyZ.gcd(a, PolyZ()), FractionPoly.gcd(fa, FractionPoly()))
        assert_same(a.monic(), fa.monic())

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_accessors(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        ca = data.draw(coefficient_lists(shape))
        a, fa = PolyZ(ca), FractionPoly(ca)
        v = data.draw(st.fractions(max_denominator=1 << 20))
        assert a.evaluate(v) == fa.evaluate(v)
        assert a.evaluate(0) == fa.evaluate(0)
        for k in range(-1, fa.degree + 2):
            assert a.coefficient(k) == fa.coefficient(k)
        assert a.leading == fa.leading
        assert a.degree == fa.degree
        assert a.coeffs == fa.coeffs
        assert all(type(c) is Fraction for c in a.coeffs)
        assert str(a) == str(fa)
        assert (a.is_zero, bool(a)) == (fa.is_zero, bool(fa))

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_equality_and_hash(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        ca = data.draw(coefficient_lists(shape))
        cb = data.draw(coefficient_lists(shape))
        a, b, fa, fb = PolyZ(ca), PolyZ(cb), FractionPoly(ca), FractionPoly(cb)
        assert (a == b) == (fa == fb)
        round_trip = (a + b) - b
        assert round_trip == a and hash(round_trip) == hash(a)
        scaled = a.scale(Fraction(7, 3)).scale(Fraction(3, 7))
        assert scaled == a and hash(scaled) == hash(a)


# Inputs for the heuristic gcd: a common factor of degree <= 12 times two
# cofactors, each with small or 40-bit integer coefficients (the empty list
# is zero, one coefficient a constant), under rational contents of either
# sign.
_gcd_ints = st.one_of(st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40))
_gcd_polys = st.lists(_gcd_ints, max_size=13).map(PolyZ)
_gcd_contents = st.builds(Fraction, st.integers(-(1 << 20), 1 << 20).filter(bool),
                          st.integers(1, 1 << 20))


@st.composite
def gcd_pairs(draw):
    g = draw(_gcd_polys)
    return tuple(g * draw(_gcd_polys) * draw(_gcd_contents) for _ in range(2))


#: At its first evaluation point the heuristic reads the wrong candidate
#: 361 z + 1562 off the integer gcd; the next point gives the gcd z - 7.
FIRST_CANDIDATE_FAILS = (poly(-56, -27, -37, 6), poly(42, -13, -20, 3))
#: At its first evaluation point b(xi) divides a(xi), so b = (z - 1)(z + 4)
#: itself is the candidate; it fails, and the next point gives z - 1.
FIRST_SHORTCUT_FAILS = (poly(0, -3, 2, -3, 1, 3), poly(-4, 3, 1))


class TestHeuristicGcd:
    """The heuristic gcd equals the primitive Euclid gcd it falls back to."""

    @settings(ORACLE_SETTINGS, max_examples=200)
    @given(pair=gcd_pairs())
    @example(pair=FIRST_CANDIDATE_FAILS)
    @example(pair=FIRST_SHORTCUT_FAILS)
    def test_matches_euclid(self, pair):
        a, b = pair
        got = PolyZ.gcd(a, b)
        assert got == _euclid_gcd(a, b)
        assert PolyZ.gcd(b, a) == got
        assert got.is_zero or got.leading == 1

    def test_pinned_examples_fail_the_first_proof(self, monkeypatch):
        # A failed proof gives None, a passed one the cofactor it proved;
        # the last proof is of b, so it gives b/gcd.
        proofs = []
        divides = scalars._divides
        monkeypatch.setattr(scalars, "_divides",
                            lambda *args: proofs.append(divides(*args)) or proofs[-1])
        for pair, gcd, cofactor in ((FIRST_CANDIDATE_FAILS, poly(-7, 1), (-6, 1, 3)),
                                    (FIRST_SHORTCUT_FAILS, poly(-1, 1), (4, 1))):
            proofs.clear()
            assert PolyZ.gcd(*pair) == gcd
            assert proofs[0] is None and proofs[-1] == cofactor

    @settings(ORACLE_SETTINGS, max_examples=200)
    @given(pair=gcd_pairs())
    @example(pair=FIRST_CANDIDATE_FAILS)
    @example(pair=FIRST_SHORTCUT_FAILS)
    def test_cofactors(self, pair):
        a, b = pair
        if a.is_zero or b.is_zero:
            return
        qa, qb, h = scalars._cofactors(a, b)
        assert h * qa == a and h * qb == b
        assert h == _euclid_gcd(a, b)

    def test_falls_back_to_euclid(self, monkeypatch):
        # With no evaluation point to try, the heuristic gives up at once.
        calls = []
        euclid = scalars._euclid_gcd
        monkeypatch.setattr(scalars, "_HEURISTIC_POINTS", 0)
        monkeypatch.setattr(scalars, "_euclid_gcd",
                            lambda a, b: calls.append(1) or euclid(a, b))
        assert PolyZ.gcd(*FIRST_CANDIDATE_FAILS) == poly(-7, 1)
        assert PolyZ.gcd(*FIRST_SHORTCUT_FAILS) == poly(-1, 1)
        assert len(calls) == 2


def test_zero_polynomial_against_oracle():
    zero, fzero = PolyZ(), FractionPoly()
    a, fa = PolyZ([Fraction(1, 2), -3]), FractionPoly([Fraction(1, 2), -3])
    assert_same(zero, fzero)
    assert_same(zero + a, fzero + fa)
    assert_same(zero * a, fzero * fa)
    assert_same(a.scale(0), fa.scale(0))
    assert_same(divmod(zero, a)[0], divmod(fzero, fa)[0])
    assert_same(zero.monic(), fzero.monic())
    assert zero.evaluate(5) == fzero.evaluate(5) == 0
    assert str(zero) == "0" and zero.degree == -1
    with pytest.raises(ValueError):
        zero.leading


@pytest.mark.parametrize("bits", [1, 8, 9, 64, 200])
@pytest.mark.parametrize("length", [1, 2, 7, 8, 41])
def test_kronecker_slot_extremes(bits, length):
    # Every coefficient at the largest magnitude of its bit length, so the
    # middle product coefficient, length * (2^bits - 1)^2, comes as close to
    # the slot bound as the inputs allow; the signs make every slot borrow,
    # none borrow, or alternate.  The packed route is called on the rows
    # themselves: PolyZ would reduce them to their primitive parts, and it
    # multiplies short ones by the schoolbook route.
    top = (1 << bits) - 1
    rows = ([-top] * length, [top] * length,
            [top if k % 2 else -top for k in range(length)],
            [1 << (bits - 1)] * length)
    for ca in rows:
        for cb in rows:
            product = FractionPoly(ca) * FractionPoly(cb)
            assert scalars._kronecker(tuple(ca), tuple(cb)) == \
                tuple(c.numerator for c in product.coeffs)
            assert_same(PolyZ(ca) * PolyZ(cb), product)


def test_unpack_rejects_a_one_bit_slot(deadline):
    # At w = 1 the digit loop would never end; the guard fails first.  The
    # timer turns a hang back into a failure instead of a growing list.
    with deadline(2.0, "_unpack(1, 1)"), pytest.raises(ValueError, match="slot width 1"):
        scalars._unpack(1, 1)
    assert scalars._unpack(0, 1) == [] and scalars._unpack(1, 2) == [1]
    assert scalars._unpack(-3, 2) == [1, -1]


@st.composite
def integer_polys(draw, max_length):
    """Nonzero integer coefficient tuples of 1..max_length terms, each up
    to 2^400 in absolute value, sometimes with zero terms."""
    rng = draw(st.randoms(use_true_random=False))
    bound = 1 << rng.randint(1, 400)
    ints = [rng.randint(-bound, bound) if rng.random() < 0.8 else 0
            for _ in range(rng.randint(1, max_length))]
    ints[-1] = ints[-1] or bound
    return tuple(ints)


class TestProductRoutes:
    """The one integer-polynomial product: the classical double loop while
    the shorter operand has at most ``_SCHOOLBOOK_MAX`` terms, Kronecker
    packing above."""

    def test_cut_is_between_the_drawn_lengths(self):
        # The draws below put the shorter operand at 1-6 terms.
        assert 1 <= scalars._SCHOOLBOOK_MAX < 6

    @pytest.mark.parametrize("shape", SHAPES)
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_short_times_long(self, shape, data):
        cs = data.draw(coefficient_lists(shape, max_degree=5, max_bits=400))
        cl = data.draw(coefficient_lists(shape, max_degree=129, max_bits=400))
        a, b, fa, fb = PolyZ(cs), PolyZ(cl), FractionPoly(cs), FractionPoly(cl)
        assert_same(a * b, fa * fb)
        assert_same(b * a, fa * fb)
        assert_same(a * a, fa * fa)

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(a=integer_polys(6), b=integer_polys(130))
    def test_routes_agree(self, a, b):
        product = scalars._kronecker(a, b)
        assert schoolbook(a, b) == product
        assert scalars._multiply(a, b) == scalars._multiply(b, a) == product


# Rational functions for the differential tests of Henrici's rules: the
# denominators are products of up to two factors from a small pool, so that
# equal, coprime and partly shared denominators all occur, and a numerator
# sometimes carries a pool factor that a sum or product can cancel.
_FACTORS = (poly(1, 1), poly(2, 1), poly(-1, 2), poly(1, 0, 1), poly(-2, 1, 1))
_OPS = (("+", lambda x, y: x + y), ("-", lambda x, y: x - y),
        ("*", lambda x, y: x * y), ("/", lambda x, y: x / y))


def _pool_scalar(rng: random.Random) -> Scalar:
    den = PolyZ([random_fraction(rng) or 1])
    for _ in range(rng.randint(0, 2)):
        den = den * rng.choice(_FACTORS)
    num = PolyZ([random_fraction(rng) for _ in range(rng.randint(0, 3))])
    if rng.random() < 0.3:
        num = num * rng.choice(_FACTORS)
    return Scalar(num, den)


pool_scalars = st.randoms(use_true_random=False).map(_pool_scalar)


def assert_ops_match_oracle(x: Scalar, y: Scalar):
    for op, fn in _OPS:
        if op == "/" and y.is_zero:
            continue
        got = fn(x, y)
        assert got == scalar_by_product(op, x, y)
        # Canonical: a monic denominator, the one POLY_ONE when constant,
        # and a unit numerator is that object too.
        assert got.den.leading == 1
        assert (got.den is POLY_ONE) == (got.den.degree == 0)
        assert (got.num == POLY_ONE) == (got.num is POLY_ONE)


def assert_henrici(x: Scalar, y: Scalar):
    # x + (y - x) and x * (y / x) cancel x's denominator factor by factor,
    # in the sum's gcd(t, g) and in the product's cross gcds; powers keep
    # the canonical parts coprime without a gcd.
    assert_ops_match_oracle(x, y)
    assert_ops_match_oracle(x, y - x)
    assert x ** 2 == scalar_by_product("*", x, x)
    if not x.is_zero:
        assert_ops_match_oracle(x, y / x)
        assert x ** -1 == scalar_by_product("/", ONE, x)


class TestHenrici:
    """Scalar + - * / equal the full product canonicalised by Euclid."""

    @settings(ORACLE_SETTINGS, max_examples=200)
    @given(x=pool_scalars, y=pool_scalars)
    @example(x=ONE / FIRST_CANDIDATE_FAILS[0], y=Z / FIRST_CANDIDATE_FAILS[1])
    @example(x=Z / FIRST_SHORTCUT_FAILS[0], y=ONE / FIRST_SHORTCUT_FAILS[1])
    # A polynomial operand on either side, whose denominator is POLY_ONE:
    # polynomial + rational function, rational function + polynomial, and
    # products in which only one operand has a denominator, which cancels.
    @example(x=Z ** 2 - 1, y=Z / (Z + 1))
    @example(x=(Z + 3) / (Z ** 2 + 1), y=2 * Z - 1)
    @example(x=ONE / (Z - 1), y=Z ** 2 - 1)
    def test_matches_product_route(self, x, y):
        assert_henrici(x, y)

    def test_euclid_fallback(self, monkeypatch):
        # With no evaluation point to try, every nontrivial gcd goes through
        # primitive Euclid and the exact divisions of ``_cofactors``.
        calls = []
        euclid = scalars._euclid_gcd
        monkeypatch.setattr(scalars, "_HEURISTIC_POINTS", 0)
        monkeypatch.setattr(scalars, "_euclid_gcd",
                            lambda a, b: calls.append(1) or euclid(a, b))
        rng = random.Random(20261018)
        values = [_pool_scalar(rng) for _ in range(16)]
        for x in values[:8]:
            for y in values[8:]:
                assert_henrici(x, y)
        assert calls


class TestPolynomialScalars:
    """Every polynomial Scalar carries the one POLY_ONE object as denominator."""

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_results_share_poly_one(self, data):
        def scalar():
            cs = data.draw(coefficient_lists("random", max_degree=6, max_bits=30))
            return Scalar(PolyZ(cs))

        a, b = scalar(), scalar()
        c = Scalar(data.draw(st.fractions().filter(bool)))
        results = [a + b, a - b, a * b, -a, a ** 3, a ** 0, a / c, c / c,
                   (a * b) / b, a + 2, 2 * a, a / 3, c ** -2,
                   Scalar(a.num, PolyZ([5])), (a / (Z + 1)) * (Z + 1)]
        for r in results:
            assert r.is_polynomial and r.den is POLY_ONE
        assert (a / (Z + 1)).den is not POLY_ONE


#: Rational coefficients of either sign, most of them not integers.
_signed_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def _division_polys(draw, min_degree=0, max_degree=4, monic=False):
    """A nonzero PolyZ of degree min_degree..max_degree with rational
    coefficients, whose leading coefficient is often negative; with
    ``monic`` its primitive part has leading coefficient 1, so every step
    of a long division by it is integral."""
    degree = draw(st.integers(min_degree, max_degree))
    if monic:
        ints = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
        return PolyZ(ints + [1]).scale(draw(_signed_fractions.filter(bool)))
    coeffs = draw(st.lists(_signed_fractions, min_size=degree, max_size=degree))
    return PolyZ(coeffs + [draw(_signed_fractions.filter(bool))])


@st.composite
def division_pairs(draw):
    """(kind, x, y) for polynomial Scalars x and y: an exact multiple y q;
    a near miss y q + r with deg r < deg y; one whose divisor's primitive
    part is monic, so the division fails only at the low remainder; a zero
    numerator; a constant divisor; a divisor of higher degree than x."""
    kind = draw(st.sampled_from(("exact", "near", "low", "zero", "constant", "higher")))
    y = draw(_division_polys(min_degree=1, monic=kind == "low"))
    q = draw(_division_polys())
    x = y * q
    if kind in ("near", "low"):
        x = x + draw(_division_polys(max_degree=y.degree - 1))
    elif kind == "zero":
        x = PolyZ()
    elif kind == "constant":
        y = PolyZ([draw(_signed_fractions.filter(bool))])
    elif kind == "higher":
        x, y = q, y * q
    return kind, Scalar(x), Scalar(y)


@st.composite
def constructor_parts(draw):
    """(kind, num, den) for ``Scalar(num, den)``, PolyZ values with rational
    contents and leading coefficients that are rarely 1: a zero den; a zero
    num; a constant den; a den that divides num, so it cancels completely;
    num equal to den; a common factor of degree >= 1; any two."""
    kind = draw(st.sampled_from(
        ("zero den", "zero num", "constant", "cancels", "equal", "common", "any")))
    num, den = draw(_division_polys()), draw(_division_polys(min_degree=1))
    if kind == "zero den":
        den = PolyZ()
    elif kind == "zero num":
        num = PolyZ()
    elif kind == "constant":
        den = PolyZ([draw(_signed_fractions.filter(bool))])
    elif kind == "cancels":
        num = num * den
    elif kind == "equal":
        num = den
    elif kind == "common":
        common = draw(_division_polys(min_degree=1))
        num, den = num * common, den * common
    return kind, num, den


class TestConstructorIsQuotient:
    """``Scalar(num, den)`` is the quotient num / den, and its unit is the
    one POLY_ONE object."""

    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(parts=constructor_parts())
    def test_matches_cofactor_route(self, parts):
        kind, num, den = parts
        if kind == "zero den":
            for build in (Scalar, scalar_by_cofactors):
                with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
                    build(num, den)
            return
        got = Scalar(num, den)
        assert got == scalar_by_cofactors(num, den)
        assert got.den.leading == 1
        assert (got.den is POLY_ONE) == (got.den.degree == 0)
        assert (got.num == POLY_ONE) == (got.num is POLY_ONE)
        if kind in ("zero num", "cancels", "equal"):
            assert got.den is POLY_ONE

    def test_unit_is_one_object(self):
        monic = (Z * Z + 1).num
        units = [ONE.num, (ONE / ONE).num, (Z / Z).num, Scalar(POLY_Z, POLY_Z).num,
                 Scalar(PolyZ([1]), PolyZ([1])).num, Scalar(monic, monic).num,
                 *scalars._cofactors(monic, monic)[:2], PolyZ([3]).monic(),
                 scalars._rational_scalars([4], 4)[0].num]
        for unit in units:
            assert unit is POLY_ONE
        # The public constructor builds a unit of its own, which a Scalar
        # does not keep.
        assert PolyZ([1]) == POLY_ONE and PolyZ([1]) is not POLY_ONE
        for s in (Scalar(PolyZ([1])), Scalar(PolyZ([2]), PolyZ([2])), Scalar(5, PolyZ([5]))):
            assert s.num is POLY_ONE and s.den is POLY_ONE


class TestExactQuotient:
    """Scalar division tries an exact quotient of two polynomials before
    the gcd route, and gives what that route gives on every input."""

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(division_pairs())
    def test_equals_gcd_route(self, case):
        kind, x, y = case
        got = x / y
        assert got == divide_by_gcd(x, y)
        exact = scalars._exact_quotient(x.num, y.num) if kind not in ("zero", "constant") else None
        if kind == "exact":
            assert exact is not None and got.den is POLY_ONE and exact == got.num
        elif kind in ("near", "low", "higher"):
            assert exact is None and got.den is not POLY_ONE

    @pytest.mark.parametrize("x, y", [
        # Every step is integral, and only the low remainder 1 is left.
        (Z * Z + 1, Z),
        # The first step 3/2 is not integral; taking 1 for it leaves no
        # remainder at all.
        (3 * Z + 1, 2 * Z + 1),
        (Z * Z * Z - 2, Z * Z + Z + 1),
        # b(0) = 2 does not divide a(0) = 1.
        (Z * Z + 3 * Z + 1, Z + 2),
        # b(0) = 0 and a(0) = 2.
        (Z * Z * Z + 2, Z * Z + Z),
    ])
    def test_inexact_is_not_a_polynomial(self, x, y):
        assert scalars._exact_quotient(x.num, y.num) is None
        got = x / y
        assert got == divide_by_gcd(x, y) and got.den == y.num.monic()

    @pytest.mark.parametrize("x, y", [
        (Z * Z + 3 * Z + 1, Z + 2),
        (Z * Z * Z + 2, Z * Z + Z),
        (Z ** 4 + Z + 3, Z * Z + 2),
    ])
    def test_low_coefficients_give_up_before_the_long_division(self, x, y, monkeypatch):
        # a(0) = b(0) q(0), so an exact quotient needs b(0) | a(0), and
        # a(0) = 0 when b(0) = 0; each pair fails that before any step.
        def refused(*args):
            raise AssertionError("the long division ran")

        monkeypatch.setattr(scalars, "divmod", refused, raising=False)
        assert scalars._exact_quotient(x.num, y.num) is None

    def test_contents_and_signs(self):
        y = Scalar(PolyZ([Fraction(3, 2), 0, Fraction(-9, 4)]))  # -(9/4) z^2 + 3/2
        q = Scalar(PolyZ([Fraction(-5, 7), Fraction(10, 3)]))
        assert (y * q) / y == q and ((y * q) / y).den is POLY_ONE
        assert (y * q) / q == y


@contextmanager
def _without_divmod():
    """Within the block, ``PolyZ.__divmod__`` (and so ``%``) raises."""
    def refused(self, other):
        raise AssertionError("an exact division took divmod")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolyZ, "__divmod__", refused)
        yield


class TestOneExactDivision:
    """Every exact division in Q[z] runs on ``_exact_quotient`` and none on
    pseudo-division, and each gives what the quotient of ``divmod`` gave
    (``exact_div_by_divmod``)."""

    @ORACLE_SETTINGS
    @given(a=_division_polys(), b=_division_polys(max_degree=6))
    def test_exact_multiples(self, a, b):
        p = a * b
        expected = exact_div_by_divmod(p, b)
        with _without_divmod():
            assert p.exact_div(b) == expected == a
            assert PolyZ().exact_div(b).is_zero

    def test_clear_denominators_of_the_hankel_jobs(self):
        jobs = [moments_from_jacobi(params, 2 * n).terms
                for n, params in Hankel().make_jobs(erarray, 1)]
        rational = [xs for xs in jobs if not all(x.is_polynomial for x in xs)]
        assert rational
        for xs in rational:
            with _without_divmod():
                d, nums = _clear_denominators(xs)
            assert d is not POLY_ONE
            assert list(nums) == [x.num * exact_div_by_divmod(d, x.den) for x in xs]

    def test_bareiss_on_thm2(self):
        n = 6
        params = JacobiParams(alpha=tuple(Z * (k + 1) + k for k in range(2 * n)),
                              beta=tuple(Z * (k * k) for k in range(1, 2 * n)))
        rows = [[e.num for e in row] for row in hankel_matrix(moments_from_jacobi(params, 2 * n), n)]
        with _without_divmod():
            got = det_bareiss(rows)
        assert Scalar(got) == _hankel_closed_form(Z, 2, n)[-1]

    def test_thm2_pair(self):
        with _without_divmod():
            got = named_pair("thm2", 12)
        assert got == pair_thm2_by_quotient(12)


# Factors for the dot kernel: zero, constants whose denominators are often
# coprime, so the running common denominator must grow, z-polynomials with a
# negative content, and rational functions of z.
_coprime_fractions = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 5, 7, 9, 11, 16, 25)))
_negative_content_polys = st.builds(
    lambda cs, k: Scalar(PolyZ([-abs(c) * k for c in cs])),
    st.lists(_coprime_fractions, min_size=1, max_size=5),
    _coprime_fractions.filter(bool))
dot_factors = st.one_of(
    st.just(ZERO),
    _coprime_fractions.map(Scalar),
    _negative_content_polys,
    st.lists(_coprime_fractions, min_size=1, max_size=5).map(lambda cs: Scalar(PolyZ(cs))),
    rational_scalars,
)


class TestDot:
    """The fused dot product equals the plain sum(x*y) loop exactly."""

    def test_empty_and_zero_factors(self):
        assert dot([]) == ZERO
        assert dot([(ZERO, Z + 1), (Z / (Z + 1), ZERO)]) == ZERO

    def test_constants_with_coprime_denominators(self):
        pairs = [(Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3))),
                 (Scalar(Fraction(-1, 5)), Scalar(7)),
                 (Scalar(Fraction(3, 4)), Scalar(Fraction(2, 9)))]
        assert dot(pairs) == Scalar(Fraction(1, 6) - Fraction(7, 5) + Fraction(1, 6))

    @settings(ORACLE_SETTINGS, max_examples=300)
    @given(pairs=st.lists(st.tuples(dot_factors, dot_factors), max_size=8))
    def test_matches_plain_sum(self, pairs):
        got = dot(pairs)
        assert got == sum((x * y for x, y in pairs), ZERO)
        # The result is canonical: polynomials share POLY_ONE, and building
        # it again from its parts changes nothing.
        assert (got.den == POLY_ONE) == (got.den is POLY_ONE)
        assert Scalar(got.num, got.den) == got


_solve_entries = st.one_of(poly_scalars, rational_scalars)


@st.composite
def lower_systems(draw):
    """A lower-triangular system of size 0..8 with 0..3 right-hand sides.

    Row m holds only its entries j <= m.  Subdiagonal entries are often
    zero, and diagonal entries are any nonzero draw, rarely 1.
    """
    size = draw(st.integers(0, 8))
    width = draw(st.integers(0, 3))
    below = st.one_of(st.just(ZERO), _solve_entries)
    diagonal = _solve_entries.filter(lambda s: not s.is_zero)
    rows = [tuple(draw(below) for _ in range(m)) + (draw(diagonal),)
            for m in range(size)]
    rhs = [tuple(draw(_solve_entries) for _ in range(width)) for _ in range(size)]
    return rows, rhs


class TestSolveLower:
    """Forward substitution equals the column-by-column inverse times rhs."""

    @settings(ORACLE_SETTINGS, max_examples=60)
    @given(system=lower_systems())
    @example(system=([(Z + 2,), (ZERO, Z / (Z + 1)), (Z, ZERO, Scalar(3))],
                     [(ONE,), (Z,), (ONE / (Z + 2),)]))
    def test_matches_inverse_oracle(self, system):
        rows, rhs = system
        size = len(rows)
        inv = invert_lower_by_columns(rows)
        width = len(rhs[0]) if rhs else 0
        expected = [
            tuple(sum((inv[m][j] * rhs[j][k] for j in range(m + 1)), ZERO)
                  for k in range(width))
            for m in range(size)
        ]
        assert solve_lower(rows, rhs) == expected
        square = [row + (ZERO,) * (size - len(row)) for row in rows]
        assert invert_lower_triangular(square) == inv

    @settings(ORACLE_SETTINGS, max_examples=40)
    @given(system=lower_systems())
    def test_unit_diagonal_matches_general_path(self, system):
        # Row m over its diagonal has a unit diagonal, and the same row
        # times Z + 2 has none; both solve to the same x.
        rows, rhs = system
        unit = [tuple(e / row[-1] for e in row) for row in rows]
        unit_rhs = [tuple(e / row[-1] for e in b) for row, b in zip(rows, rhs)]
        scaled = [tuple(e * (Z + 2) for e in row) for row in unit]
        scaled_rhs = [tuple(e * (Z + 2) for e in b) for b in unit_rhs]
        assert all(row[-1] == ONE for row in unit)
        assert solve_lower(unit, unit_rhs) == solve_lower(scaled, scaled_rhs)
        assert solve_lower(unit, unit_rhs) == solve_lower(rows, rhs)

    def test_unit_diagonal_multipliers_take_the_identity(self, monkeypatch):
        # A unit diagonal makes each multiplier -rows[m][j] times the one
        # POLY_ONE, which PolyZ.__mul__ returns without a gcd.
        rows = [(ONE,), (Z + 1, ONE), (Z * Z, 3 * Z - 2, ONE)]
        rhs = [(Z,), (ONE,), (Z + 5,)]
        expected = solve_lower(rows, rhs)
        general = []
        mul = PolyZ.__mul__

        def counting(a, b):
            if a is not POLY_ONE and b is not POLY_ONE:
                general.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(PolyZ, "__mul__", counting)
        assert solve_lower(rows, rhs) == expected
        assert general == []

    def test_solves_only_the_rows_of_rhs(self):
        rows = ((Z + 1,), (Z, ONE), (ONE, Z, ZERO))
        x = solve_lower(rows, [(Z + 1, ONE), (ZERO, Z)])
        assert x == [(ONE, ONE / (Z + 1)), (-Z, Z - Z / (Z + 1))]

    def test_singular_diagonal_names_the_index(self):
        rows = ((ONE,), (Z, ONE), (ONE, Z, ZERO))
        with pytest.raises(ZeroDivisionError, match=r"singular diagonal entry at \(2, 2\)"):
            solve_lower(rows, [(ONE,)] * 3)


# Every place that takes values into Q(z), with what the value was meant to be.
_COERCION_SITES = {
    "Series": (lambda v: Series([ONE, v]), "a series coefficient"),
    "JacobiParams": (lambda v: JacobiParams((ONE, v), (ONE,)), "a scalar"),
    "MomentSequence": (lambda v: MomentSequence((ONE, v)), "a scalar"),
    "hankel_transform": (lambda v: hankel_transform([ONE, v, ONE], 1), "a sequence term"),
    "jacobi_from_moments": (lambda v: jacobi_from_moments([ONE, v]), "a sequence term"),
    "er_apply": (lambda v: er_apply(er_build(Series.one(1), Series.x(1)), [ONE, v]),
                 "a scalar"),
    "det_scalar": (lambda v: det_scalar([[v]]), "a matrix entry"),
}


class TestWayIntoQz:
    """``_as_scalar`` and ``_clear_denominators``: how values enter Q(z) and Q[z]."""

    @pytest.mark.parametrize("value", [1.5, "1", None], ids=["float", "str", "None"])
    @pytest.mark.parametrize("site", sorted(_COERCION_SITES))
    def test_coercion_site_names_what_the_value_was_for(self, site, value):
        call, what = _COERCION_SITES[site]
        with pytest.raises(TypeError, match=f"^cannot use {type(value).__name__} as {what}$"):
            call(value)

    def test_polynomials_keep_poly_one_and_their_numerators(self):
        xs = [Scalar(3), Z + 1, ZERO, Scalar(Fraction(1, 2)) * Z]
        d, nums = _clear_denominators(xs)
        assert d is POLY_ONE
        assert all(n is x.num for n, x in zip(nums, xs))
        assert _clear_denominators([]) == (POLY_ONE, ())

    @ORACLE_SETTINGS
    @given(xs=st.lists(st.one_of(rational_scalars, poly_scalars), min_size=1, max_size=6))
    def test_numerators_over_the_lcm(self, xs):
        d, nums = _clear_denominators(xs)
        lcm = POLY_ONE
        for x in xs:
            lcm = (lcm * x.den).exact_div(_euclid_gcd(lcm, x.den))
        assert d == lcm.monic()
        assert [Scalar(n, d) for n in nums] == xs

    def test_divides_once_per_distinct_denominator(self, monkeypatch):
        calls = []
        exact_div = PolyZ.exact_div

        def counted(a, b):
            calls.append(b)
            return exact_div(a, b)

        monkeypatch.setattr(PolyZ, "exact_div", counted)
        xs = [ONE / (Z + 1), Z / (Z + 1), ONE / (Z + 2), Z, (Z + 3) / (Z + 2)]
        d, nums = _clear_denominators(xs)
        assert sorted(map(str, calls)) == ["z + 1", "z + 2"]
        assert d == (Z + 1).num * (Z + 2).num
        assert [Scalar(n, d) for n in nums] == xs
