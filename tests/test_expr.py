from __future__ import annotations

from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erarray import expr
from erarray.expr import (
    MAX_DEGREE,
    MAX_POWER_BITS,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    VarX,
    VarZ,
    eval_scalar,
    eval_series,
    parse,
    parse_scalar,
    parse_series,
    render,
)
from erarray.scalars import ONE, ZERO, Scalar, Z
from erarray.sequences import NAMED_PAIR_NAMES, named_pair
from erarray.series import Series

from oracles import eval_scalar_by_scalars, eval_series_by_series, parse_by_peek

S = (0, 0)  # spans are ignored in comparisons


class TestParse:
    def test_exp_minus_one(self):
        assert parse("exp(x)-1") == BinOp("-", Call("exp", VarX(S), S), Num(Fraction(1), S), S)

    def test_thm1_g(self):
        ast = parse("exp(z*(exp(x)-1))")
        inner = BinOp("-", Call("exp", VarX(S), S), Num(Fraction(1), S), S)
        assert ast == Call("exp", BinOp("*", VarZ(S), inner, S), S)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            parse("1/(1-x")
        assert err.value.offset == 6
        assert err.value.expected == "')'"

    def test_rational_literal_is_greedy(self):
        assert parse("3/4") == Num(Fraction(3, 4), S)
        assert parse("3/x") == BinOp("/", Num(Fraction(3), S), VarX(S), S)

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError, match="nonzero denominator"):
            parse("3/0")

    def test_ln_alias(self):
        assert parse("ln(1+x)") == parse("log(1+x)")

    def test_equality_and_hash_ignore_spans(self):
        spaced, tight = parse("exp( z * x ) ^ 2"), parse("exp(z*x)^2")
        assert spaced == tight and hash(spaced) == hash(tight)
        assert astuple(spaced) != astuple(tight)
        assert len({spaced, tight, parse("exp(z*x)^3")}) == 2
        assert VarX(S) != VarZ(S)
        assert Num(Fraction(1), (0, 1)) == Num(Fraction(1), (5, 6)) != Num(Fraction(2), S)
        assert BinOp("+", VarX(S), VarZ(S), S) != BinOp("-", VarX(S), VarZ(S), S)
        assert spaced != "exp(z*x)^2"
        assert repr(VarX((3, 4))) == "VarX(span=(3, 4))"

    def test_precedence(self):
        assert parse("1+2*x") == BinOp(
            "+", Num(Fraction(1), S), BinOp("*", Num(Fraction(2), S), VarX(S), S), S
        )

    def test_power_binds_before_unary_minus(self):
        assert parse("-x^2") == Neg(Pow(VarX(S), 2, S), S)
        assert parse("(-x)^2") == Pow(Neg(VarX(S), S), 2, S)
        assert parse("2*-x^3") == BinOp("*", Num(Fraction(2), S),
                                         Neg(Pow(VarX(S), 3, S), S), S)

    def test_parenthesised_negative_exponent(self):
        assert parse("exp(x)^(-1)") == Pow(Call("exp", VarX(S), S), -1, S)
        assert parse("x^-2") == Pow(VarX(S), -2, S)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="offset 2"):
            parse("1+sin(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="expected end of input"):
            parse("x )")


class TestRenderRoundTrip:
    CASES = [
        "exp(x)-1",
        "exp(z*(exp(x)-1))",
        "(exp(x)-exp(z*x))/(exp(z*x)-z*exp(x))",
        "(exp(z*x)*(1-z))/(exp(z*x)-z*exp(x))",
        "1/(1-x)",
        "x/(1-x)",
        "log(1/(1-x))",
        "1/2*z - 1",
        "z^3 + 3*z^2 + z",
        "-x^2",
        "(-x)^2",
        "exp(x)^(-1)",
        "x-(1-x)*(2-x)",
        "3/4*x^2 - x/7",
        "(z)/(z + 1)",
        "-(x+z)",
        "2--x",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        ast = parse(text)
        assert parse(render(ast)) == ast

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_values_stable(self, text):
        n = 6
        assert eval_series(parse(text), n) == eval_series(parse(render(parse(text))), n)


class TestEvalSeries:
    def test_geometric_shift(self):
        assert parse_series("x/(1-x)", 4).coeffs == tuple(
            Scalar(v) for v in (0, 1, 1, 1, 1)
        )

    def test_thm2_f_prefix(self):
        f = parse_series("(exp(x)-exp(z*x))/(exp(z*x)-z*exp(x))", 2)
        assert f.coeffs == (ZERO, ONE, (Z + 1) / 2)

    def test_reciprocal_exp(self):
        e_inv = parse_series("exp(x)^(-1)", 3)
        assert e_inv.coeffs == tuple(
            Scalar(v) for v in (1, -1, Fraction(1, 2), Fraction(-1, 6))
        )

    def test_valuation_loss_is_recovered(self):
        # (e^x - 1)/x loses one order in the raw division; the evaluator
        # re-runs at a raised working order so the caller still gets N.
        n = 5
        got = parse_series("(exp(x)-1)/x", n)
        assert got.order == n
        expected = (Series.x(n + 1).exp() - 1) / Series.x(n + 1)
        assert got == expected

    def test_mixed_orders_after_cancellation(self):
        got = parse_series("(exp(x)-1)/x + x", 4)
        reference = parse_series("1 + 3/2*x + x^2/6 + x^3/24 + x^4/120", 4)
        assert got == reference

    def test_exp_needs_zero_constant(self):
        with pytest.raises(EvalError, match="zero constant term"):
            eval_series(parse("exp(1+x)"), 4)

    def test_bad_power(self):
        with pytest.raises(EvalError, match="unit or common factor"):
            eval_series(parse("x^(-1)"), 4)

    def test_requires_positive_order(self):
        with pytest.raises(ValueError, match="order >= 1"):
            eval_series(parse("x"), 0)


NAMED_EXPRESSIONS = {
    "thm1": ("exp(z*(exp(x)-1))", "exp(x)-1"),
    "thm2": (
        "(exp(z*x)*(1-z))/(exp(z*x)-z*exp(x))",
        "(exp(x)-exp(z*x))/(exp(z*x)-z*exp(x))",
    ),
    "stirling2": ("1", "exp(x)-1"),
    "binomial": ("exp(x)", "x"),
    "lah_like": ("1/(1-x)", "x"),
    "sets_of_lists": ("1", "x/(1-x)"),
    "laguerre": ("1/(1-x)", "x/(1-x)"),
    "charlier": ("exp(x)", "log(1/(1-x))"),
    "thm2_z1": ("1/(1-x)", "x/(1-x)"),
}


class TestNamedPairEquivalence:
    @pytest.mark.parametrize("name", NAMED_PAIR_NAMES)
    def test_parsed_equals_built(self, name):
        n = 8
        g_text, f_text = NAMED_EXPRESSIONS[name]
        g, f = named_pair(name, n)
        assert parse_series(g_text, n) == g
        assert parse_series(f_text, n) == f


class TestEvalScalar:
    def test_polynomial(self):
        assert parse_scalar("z^3 + 3*z^2 + z") == Z**3 + 3 * Z**2 + Z

    def test_fraction_form(self):
        assert parse_scalar("(z)/(z + 1)") == Z / (Z + 1)

    def test_rational(self):
        assert parse_scalar("-3/4") == Scalar(Fraction(-3, 4))

    def test_x_rejected(self):
        with pytest.raises(EvalError, match="not allowed"):
            parse_scalar("1+x")

    def test_exp_rejected(self):
        with pytest.raises(EvalError, match="not allowed"):
            parse_scalar("exp(z)")

    def test_power_past_the_degree_bound_fails_first(self, deadline):
        # z^N is built by repeated squaring, so the bound is checked before;
        # a truncated series power is not bounded.
        with deadline(2.0, "a hostile power"):
            with pytest.raises(EvalError, match=rf"^z-degree {MAX_DEGREE + 2} exceeds the bound "
                                                rf"{MAX_DEGREE} \(at offset 1\.\.11\)$"):
                parse_scalar(f"(z^2)^{MAX_DEGREE // 2 + 1}")
            assert parse_series("exp(z*x)^99999999999", 2).coeffs[0] == ONE

    def test_power_budget_on_both_sides(self, deadline, monkeypatch):
        """With the budget at 2^12 bits, the largest powers of 3 and z + 1
        that the bound admits are built, with either sign, and one factor
        more fails at once, naming the bound."""
        monkeypatch.setattr(expr, "MAX_POWER_BITS", 1 << 12)
        with deadline(2.0, "powers at the budget"):
            # 2e + 6 bits for 3^e; e + 2 for the content and 1 + 3 for the
            # unit denominator, and (e + 1) (e + 1) for (z + 1)^e.
            for base, top, past in ((Scalar(3), 2045, 4098), (Z + 1, 62, 4101)):
                for sign in (1, -1):
                    assert parse_scalar(f"({base})^({sign * top})") == base ** (sign * top)
                    with pytest.raises(EvalError, match=rf"^a power of up to {past} bits exceeds "
                                                        rf"the bound of 4096 bits \(at offset "):
                        parse_scalar(f"({base})^({sign * (top + 1)})")

    def test_power_budget_before_any_work(self, deadline):
        """At the real budget the first powers of z + 1 and of 3 past it
        fail before they are built; built, each would take under a MB, so
        a broken guard shows as a deadline miss, not a runaway.  A power
        of z, whose coefficient is 1, stays well inside the budget up to
        the degree bound."""
        for base, past in ((Z + 1, 2047), (Scalar(3), 2097150)):
            assert expr._power_bits(base, past - 1) <= MAX_POWER_BITS < expr._power_bits(base, past)
        with deadline(2.0, "powers past the budget"):
            for text in ("(z+1)^2047", "3^2097150", "3^(-2097150)"):
                with pytest.raises(EvalError, match=rf"bits exceeds the bound of {MAX_POWER_BITS} bits"):
                    parse_scalar(text)
            assert parse_scalar("z^2048").num.degree == 2048
        assert expr._power_bits(Z, MAX_DEGREE) < MAX_POWER_BITS // 32

    def test_monomial_power_at_the_degree_bound(self, deadline):
        with deadline(2.0, "z to the degree bound"):
            for sign in (1, -1):
                s = parse_scalar(f"z^({sign * MAX_DEGREE})")
                assert s == Z ** (sign * MAX_DEGREE)
                assert (s.num if sign > 0 else s.den).degree == MAX_DEGREE

    def test_round_trip_canonical(self):
        for s in (Z**2 - 1, (Z + 2) / (Z**2 - 1), Scalar(Fraction(1, 2)) * Z - 1,
                  ZERO, -Z, -Z**2 + 1, (-Z**3) / (Z + 1)):
            assert parse_scalar(str(s)) == s


# Differential tests against the parser and evaluator before constant
# folding (tests/oracles.py).  Texts come from the grammar, with z,
# rational literals (a zero denominator among them), unary minus, zero and
# negative exponents, constant subexpressions that are zero, exp and log of
# constants, and valuation-cancelling divisions; then with one character
# dropped or inserted.

_LEAVES = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 0])),
    st.sampled_from(["x", "z", "x^2", "(1-1)", "(z-z)", "(exp(x)-1)", "(1+z)", "(x-x^2)/x"]),
)
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "(-1)", "(-2)", "-1", "(0)"])


def _extend(inner):
    return st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", "/", " / ", " - "]),
                  inner),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds("{}({})".format, st.sampled_from(["exp", "log", "ln"]), inner),
        st.builds("({})^{}".format, inner, _EXPONENTS),
        st.builds("{}^{}".format, _LEAVES, _EXPONENTS),
    )


_TEXTS = st.recursive(_LEAVES, _extend, max_leaves=8)


@st.composite
def _edited(draw):
    """A grammar text with one character dropped or inserted."""
    text = draw(_TEXTS)
    i = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        return text[:i] + text[i + 1:]
    return text[:i] + draw(st.sampled_from("xz+-*/^()0123 el!")) + text[i:]


_DIFFERENTIAL = settings(deadline=None, max_examples=150, derandomize=True)


def _same_parse(text):
    """parse(text) gives the oracle's AST, spans included, or its
    ParseError; returns the AST or None."""
    try:
        want = parse_by_peek(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.offset, got.value.expected, got.value.found) == (
            exc.offset, exc.expected, exc.found)
        return None
    got = parse(text)
    assert got == want and astuple(got) == astuple(want)
    return got


def _same_outcome(ours, oracle):
    """Both give equal values, or exceptions of one class; an EvalError
    over the same span and with the same message, except that a constant
    divisor of zero may now say "scalar division by zero"."""
    try:
        want = oracle()
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as got:
            ours()
        assert type(got.value) is type(exc)
        if isinstance(exc, EvalError):
            assert got.value.span == exc.span
            if "division by zero" not in str(exc):
                assert str(got.value) == str(exc)
        return
    assert ours() == want


class TestAgainstOracle:
    @_DIFFERENTIAL
    @given(text=_TEXTS, order=st.integers(1, 5))
    def test_grammar_texts(self, text, order):
        ast = _same_parse(text)
        if ast is not None:
            _same_outcome(lambda: eval_series(ast, order),
                          lambda: eval_series_by_series(ast, order))
            _same_outcome(lambda: eval_scalar(ast), lambda: eval_scalar_by_scalars(ast))

    @_DIFFERENTIAL
    @given(text=_edited(), order=st.integers(1, 4))
    def test_edited_texts(self, text, order):
        ast = _same_parse(text)
        if ast is not None:
            _same_outcome(lambda: eval_series(ast, order),
                          lambda: eval_series_by_series(ast, order))

    @pytest.mark.parametrize("text", ["x/(1-1)", "z/(z-z)+x", "(1-1)^(-1)", "x/(x-x)", "1/x",
                                      "exp(1)", "log(z)", "exp(z-z)*x", "log(1/(1-x+x))",
                                      "(exp(x)-1)/x", "x^2/x^2", "z^(-2)*x", "3/0", "x^(-1)"])
    def test_edge_cases(self, text):
        ast = _same_parse(text)
        if ast is not None:
            _same_outcome(lambda: eval_series(ast, 4), lambda: eval_series_by_series(ast, 4))
            _same_outcome(lambda: eval_scalar(ast), lambda: eval_scalar_by_scalars(ast))

    def test_constant_divisor_of_zero(self):
        # The only message that changed: a constant subexpression that
        # divides by zero is now a Scalar division.
        with pytest.raises(EvalError, match="scalar division by zero") as err:
            parse_series("z/(z-z)+x", 4)
        assert err.value.span == (0, 6)
        with pytest.raises(EvalError, match="series division by zero") as err:
            parse_series("x/(1-1)", 4)
        assert err.value.span == (0, 6)
