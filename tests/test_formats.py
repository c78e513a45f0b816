from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erarray import formats
from erarray.expr import parse_scalar
from erarray.orthopoly import JacobiParams
from erarray.riordan import er_build, er_inverse, production_from_pair
from erarray.scalars import ONE, POLY_ONE, ZERO, PolyZ, Scalar, Z
from erarray.sequences import named_pair

from oracles import (ORACLE_SETTINGS, poly_scalars, polyz_str_by_parts, rational_scalars,
                     read_scalar_by_terms, scalar_str_by_parts,
                     triangle_to_bfile_by_strings)


@pytest.fixture(scope="module")
def thm1_array():
    return er_build(*named_pair("thm1", 4))


class TestTriangleFormats:
    def test_json_round_trip_byte_identical(self, thm1_array):
        text = formats.triangle_to_json(thm1_array.entries)
        reparsed = formats.triangle_from_json(text)
        assert formats.triangle_to_json(reparsed) == text

    def test_json_values_survive(self, thm1_array):
        text = formats.triangle_to_json(thm1_array.entries)
        reparsed = formats.triangle_from_json(text)
        for n, row in enumerate(reparsed):
            assert row == thm1_array.entries[n][: n + 1]

    @pytest.mark.parametrize("text, message", [
        ("[]", 'an object with a "rows" list'),
        ("{}", 'an object with a "rows" list'),
        ('{"rows": [1]}', "row 0 must be a list of terms, got an integer"),
        ('{"rows": [["1"], ["z", 0.5]]}', "row 1 entry 1: expected a string or an integer"),
    ])
    def test_json_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            formats.triangle_from_json(text)

    def test_json_schema_fields(self, thm1_array):
        data = json.loads(formats.triangle_to_json(thm1_array.entries))
        assert data["order"] == 4
        assert len(data["rows"]) == 5
        assert data["rows"][1] == ["z", "1"]

    def test_plain_block(self):
        a = er_build(*named_pair("stirling2", 3))
        assert formats.triangle_to_plain(a.entries) == (
            "1\n0  1\n0  1  1\n0  1  3  1\n"
        )

    def test_latex_pmatrix(self):
        a = er_build(*named_pair("stirling2", 2))
        text = formats.triangle_to_latex(a.entries)
        assert text.startswith("\\begin{pmatrix}\n")
        assert "1 & 0 & 0" in text
        assert text.endswith("\\end{pmatrix}\n")

    def test_bfile_triples(self):
        a = er_build(*named_pair("stirling2", 2))
        assert formats.triangle_to_bfile(a.entries) == (
            "0 0 1\n1 0 0\n1 1 1\n2 0 0\n2 1 1\n2 2 1\n"
        )

    def test_bfile_rejects_symbolic(self, thm1_array):
        with pytest.raises(ValueError, match="integer"):
            formats.triangle_to_bfile(thm1_array.entries)

    def test_hessenberg_rows(self, thm1_array):
        p = production_from_pair(thm1_array)
        text = formats.triangle_to_json(p.entries[:4], lower=False)
        data = json.loads(text)
        assert data["rows"][0] == ["z", "1", "0", "0", "0"]


def _bfile_outcome(write, entries, lower=True):
    try:
        return write(entries, lower=lower)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestBfileIntegers:
    """The b-file writers read each entry's integer directly and give the
    text, or the error, of formatting the entry and reading it back."""

    @pytest.mark.parametrize("name", ["stirling2", "laguerre", "charlier", "sets_of_lists"])
    def test_arrays_match_the_string_route(self, name):
        a = er_build(*named_pair(name, 9))
        for entries in (a.entries, er_inverse(a).entries):
            text = formats.triangle_to_bfile(entries)
            assert text == triangle_to_bfile_by_strings(entries)
        p = production_from_pair(a).entries
        assert formats.triangle_to_bfile(p, lower=False) == triangle_to_bfile_by_strings(
            p, lower=False)

    @pytest.mark.parametrize("cell", ["5", " -12 ", 7, Fraction(6, 2)])
    def test_cells_that_spell_integers(self, cell):
        # A string cell is read as int(cell), as formatting and reading
        # back always did; an int or integral Fraction is read directly.
        entries = ((ONE,), (cell, ONE))
        text = formats.triangle_to_bfile(entries)
        assert text == triangle_to_bfile_by_strings(entries)
        assert formats.sequence_to_bfile([ONE, cell]) == f"0 1\n1 {int(str(cell))}\n"

    def test_large_integers(self):
        entries = ((Scalar(-(10 ** 40)),), (Scalar(3 ** 90), ONE))
        assert formats.triangle_to_bfile(entries) == triangle_to_bfile_by_strings(entries)

    @pytest.mark.parametrize("cell", [Scalar(Fraction(1, 2)), Scalar(Fraction(-7, 3)), Z,
                                      Z / (Z + 1), "pole at z = 1", 2 * Z - 1])
    def test_non_integer_error_text(self, cell, thm1_array):
        entries = ((ONE,), (cell, ONE))
        got = _bfile_outcome(formats.triangle_to_bfile, entries)
        assert got == _bfile_outcome(triangle_to_bfile_by_strings, entries)
        assert got == f"ValueError: bfile format requires integer entries, got {str(cell)!r}"
        with pytest.raises(ValueError) as err:
            formats.sequence_to_bfile([ONE, cell])
        assert str(err.value) == got.removeprefix("ValueError: ")
        assert _bfile_outcome(formats.triangle_to_bfile, thm1_array.entries) == _bfile_outcome(
            triangle_to_bfile_by_strings, thm1_array.entries)


class TestSequenceFormats:
    def test_json_round_trip(self):
        terms = [ONE, Z, Z * Z + Z, (Z + 1) / (Z * Z + 1)]
        text = formats.sequence_to_json(terms)
        assert formats.sequence_from_json(text) == terms
        assert formats.sequence_to_json(formats.sequence_from_json(text)) == text

    def test_bfile_round_trip(self):
        text = formats.sequence_to_bfile([Scalar(v) for v in (1, 1, 2, 5, 15)])
        assert text == "0 1\n1 1\n2 2\n3 5\n4 15\n"
        assert formats.sequence_from_bfile(text) == [
            Scalar(v) for v in (1, 1, 2, 5, 15)
        ]

    def test_bfile_comments_and_order(self):
        text = "# OEIS style comment\n2 5\n0 1\n1 1\n"
        assert formats.sequence_from_bfile(text) == [Scalar(v) for v in (1, 1, 5)]

    def test_bfile_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            formats.sequence_from_bfile("1 2 3\n")

    def test_bfile_offset(self):
        # An OEIS offset: the first index need not be 0.
        text = "1 1\n3 5\n2 2\n"
        assert formats.sequence_from_bfile(text) == [Scalar(v) for v in (1, 2, 5)]

    @pytest.mark.parametrize("text, message", [
        ("0 1\n2 5\n", "line 2: index 2 leaves a gap after index 0"),
        ("# comment\n0 1\n1 1\n\n5 2\n", "line 5: index 5 leaves a gap after index 1"),
        ("0 1\n0 2\n1 3\n", "line 2: index 0 repeats line 1"),
        ("1 3\n0 1\n1 3\n", "line 3: index 1 repeats line 1"),
    ])
    def test_bfile_gap_or_repeat(self, text, message):
        with pytest.raises(ValueError, match=message):
            formats.sequence_from_bfile(text)

    def test_ingestion_dispatch(self):
        json_text = '["1", "z"]\n'
        assert formats.moments_from_file_text(json_text).terms == (ONE, Z)
        bfile_text = "0 1\n1 3\n"
        assert formats.moments_from_file_text(bfile_text).terms == (ONE, Scalar(3))
        with pytest.raises(ValueError, match="must be a list"):
            formats.moments_from_file_text('{"terms": ["1"]}')

    def test_json_integers_are_exact_terms(self):
        got = formats.sequence_from_json("[1, 1, 2, 5, 15, -3, 12345678901234567890]")
        assert got == [Scalar(v) for v in (1, 1, 2, 5, 15, -3, 12345678901234567890)]
        assert formats.sequence_from_json('[1, "z^2 - 1/2"]') == [ONE, Z * Z - Fraction(1, 2)]

    @pytest.mark.parametrize("text, index, kind", [
        ("[1, 2.5]", 1, "a non-integer number"),
        ("[1.0]", 0, "a non-integer number"),
        ('["1", "z", {"a": 1}]', 2, "an object"),
        ('["1", ["z"]]', 1, "a list"),
        ("[true]", 0, "a boolean"),
        ('["1", null]', 1, "null"),
    ])
    def test_json_rejects_non_terms(self, text, index, kind):
        expected = f"term {index}: expected a string or an integer, got {kind}"
        with pytest.raises(ValueError, match=expected):
            formats.sequence_from_json(text)

    @pytest.mark.parametrize("text, kind", [
        ('"12"', "a string"), ("12", "an integer"), ('{"a": "1"}', "an object"),
        ("null", "null"),
    ])
    def test_json_rejects_non_list_document(self, text, kind):
        with pytest.raises(ValueError, match=f"must be a list of terms, got {kind}"):
            formats.sequence_from_json(text)

    def test_json_bad_cell_names_its_index(self):
        with pytest.raises(ValueError, match="term 2: syntax error at offset 3"):
            formats.sequence_from_json('["1", "z", "z +"]')
        with pytest.raises(ValueError, match="term 1: .*division by zero"):
            formats.sequence_from_json('["1", "(1)/(0)"]')

    def test_negative_power_round_trip(self):
        terms = [-Z * Z, -Z**3 + Z, (-Z**2) / (Z + 1), -ONE]
        assert formats.sequence_from_json(formats.sequence_to_json(terms)) == terms


#: Coefficients up to 2^70 with denominators up to 5, so that the canonical
#: form carries multi-digit numerators, fractions and gaps between degrees.
_big_fractions = st.builds(
    Fraction, st.integers(-(2**70), 2**70), st.integers(1, 5)
)
_wide_polys = st.lists(
    st.one_of(st.just(Fraction(0)), _big_fractions), max_size=13
).map(PolyZ)
_wide_scalars = st.one_of(
    poly_scalars,
    rational_scalars,
    _wide_polys.map(Scalar),
    st.builds(Scalar, _wide_polys, _wide_polys.filter(bool)),
)

#: Pieces of the term alphabet, joined at random; exponents stay one digit
#: so that the parser never builds a huge power.
_pieces = st.sampled_from([
    "z", "z^2", "z^0", "0", "1", "2", "13", "/", "3/4", "*", "^", "-",
    " + ", " - ", " ", "(", ")", ")/(", "1/0",
])


#: The wide polynomials times contents of up to 400 bits over up to 143
#: bits, of either sign.
_contented_polys = st.builds(
    lambda p, c: p.scale(c), _wide_polys,
    st.builds(Fraction, st.integers(-(2**400), 2**400).filter(bool), st.integers(1, 3**90)))

#: Texts that ``int`` reads but a canonical term never holds: a digit
#: separator, surrounding space, a "+" sign, a signed later term and a
#: non-ASCII digit.
_INT_ONLY_TEXTS = ["1_0*z", " 1", "+1", "1 + -2", "\u0661", "z^\u0662"]


def _outcome(read, text):
    try:
        return read(text)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _outcome_and_message(read, text):
    """The Scalar read with its text, whether it is a polynomial and
    whether its parts are the one unit, or the exception and its message."""
    try:
        s = read(text)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return s, str(s), s.is_polynomial, s.num is POLY_ONE, s.den is POLY_ONE


class TestCanonicalReader:
    @ORACLE_SETTINGS
    @given(s=_wide_scalars)
    @example(s=-Z**2)
    @example(s=ZERO)
    @example(s=(Z**4 - 1) / (3 * Z**3 + 2))
    @example(s=Scalar(-(3**200)))
    @example(s=Scalar(Fraction(2**127 - 1, -(3**90))))
    @example(s=(Z * Fraction(7**60, 6) - Fraction(1, 10**40)) / (Z + Fraction(5, 3**50)))
    def test_reads_str_without_the_parser(self, s):
        def refuse(text):
            raise AssertionError(f"parser fallback taken for {text!r}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "parse_scalar", refuse)
            assert formats._read_scalar(str(s)) == s

    @ORACLE_SETTINGS
    @given(text=st.lists(_pieces, min_size=1, max_size=10).map("".join))
    @example(text="-z^2 + 1")
    @example(text="z + z - 3/4*z^2")
    @example(text="(z^2)/(2*z)")
    @example(text="(1)/(0)")
    @example(text="z - -1")
    def test_agrees_with_parser(self, text):
        read = _outcome(formats._read_scalar, text)
        parsed = _outcome(parse_scalar, text)
        if isinstance(parsed, type):
            assert isinstance(read, type)
        else:
            assert read == parsed

    @ORACLE_SETTINGS
    @given(text=st.one_of(st.lists(_pieces, min_size=1, max_size=10).map("".join),
                          _wide_scalars.map(str)))
    @example(text="1_0*z")
    @example(text=" 1")
    @example(text="+1")
    @example(text="1 + -2")
    @example(text="\u0661")
    @example(text="(z^2)/(z)")
    @example(text="(z^2 - 1)/(z + 1)")
    @example(text="(z)/(2*z + 1)")
    @example(text="(0)/(z)")
    @example(text="(z)/(1)")
    @example(text="z + 3/0*z^2")
    @example(text="z^0 + 1/2 - z + z")
    @example(text="(2)/(1/1)")
    @example(text="(z)/(3/3)")
    @example(text="2/2")
    @example(text="(z + 1/2 + 1/2)/(1/2 + 1/2)")
    def test_is_the_terms_route(self, text):
        # Both read the same Scalar, down to a unit part being the one
        # POLY_ONE object, or raise the same error.  A run of
        # digits after "^" stays short, so neither route builds a huge power.
        assume(all(len(k) <= 4 for k in re.findall(r"\^[ (-]*(\d+)", text)))
        assert _outcome_and_message(formats._read_scalar, text) == _outcome_and_message(
            read_scalar_by_terms, text)

    @pytest.mark.parametrize("text", _INT_ONLY_TEXTS)
    def test_int_only_texts_reach_the_parser(self, text):
        assert formats._read_canonical(text) is None

    @pytest.mark.parametrize("text, value", [
        ("(z^2)/(z)", Z), ("(z^2 - 1)/(z - 1)", Z + 1), ("(2*z)/(z + 1)", 2 * Z / (Z + 1)),
        ("(z)/(2*z + 2)", Z / (2 * Z + 2)), ("(z)/(1)", Z), ("(0)/(z + 1)", ZERO),
    ])
    def test_quotient_cells_are_reduced(self, text, value):
        # The Scalar read equals the quotient in structure too.
        got = formats._read_canonical(text)
        assert got == value and (got.num, got.den) == (value.num, value.den)

    def test_a_hostile_exponent_fails_before_it_allocates(self, deadline):
        # A list of 10^11 zeros would exhaust memory, or allocate gigabytes
        # for a smaller exponent; the bound is checked first.  The timer
        # turns a slow allocation into a failure.
        with deadline(2.0, "reading a hostile power"):
            for text in ('["1", "z^99999999999", "1"]', '["1", "(1)/(z^99999999999 + 1)"]',
                         f'["1", "z^{formats.MAX_DEGREE + 1} + 1"]'):
                with pytest.raises(ValueError, match=r"^term 1: z-degree \d+ exceeds the bound "
                                                     rf"{formats.MAX_DEGREE}$"):
                    formats.sequence_from_json(text)
            # Other cells go through the parser, which checks every power.
            for text in ('["1", "z^99999999999*2", "1"]', '["1", "(z + 1)^(-99999999999)"]',
                         '["1", "((z^2)^300)^300"]'):
                with pytest.raises(ValueError, match=r"^term 1: z-degree \d+ exceeds the bound "
                                                     rf"{formats.MAX_DEGREE} \(at offset"):
                    formats.sequence_from_json(text)
        assert formats._read_scalar(f"z^{formats.MAX_DEGREE} - 1").num.degree == formats.MAX_DEGREE

    def test_non_canonical_cells_use_the_parser(self):
        assert formats._read_canonical("z*(z + 1)") is None
        assert formats._read_scalar("z*(z + 1)") == Z * Z + Z
        assert formats._read_canonical("z+1") is None
        assert formats._read_scalar("(z)/(1 + z)") == Z / (Z + 1)



class TestWriter:
    """The text of a polynomial, a Scalar and a JSON sequence is byte for
    byte what it was with one reduced fraction per coefficient and
    ``json.dumps``."""

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(p=st.one_of(_wide_polys, _contented_polys))
    @example(p=PolyZ([0, 0, 0, Fraction(-3, 7)]))
    @example(p=PolyZ([Fraction(-(10**200), 3), 0, 0, 0, 0, 1]))
    def test_polynomial_text_is_the_parts_route(self, p):
        assert str(p) == polyz_str_by_parts(p)
        assert str(Scalar(p)) == scalar_str_by_parts(Scalar(p))

    @ORACLE_SETTINGS
    @given(s=_wide_scalars)
    def test_scalar_text_is_the_parts_route(self, s):
        assert str(s) == scalar_str_by_parts(s)

    @ORACLE_SETTINGS
    @given(terms=st.lists(_wide_scalars, max_size=6))
    def test_sequence_json_is_json_dumps(self, terms):
        want = json.dumps([str(t) for t in terms], indent=2) + "\n"
        assert formats.sequence_to_json(terms) == want

    @pytest.mark.parametrize("terms", [
        [], [ONE], ['say "z"', "back\\slash", "tab\tnew\nline", "\u00e9\u2028\U0001f600", "\x00"],
    ])
    def test_sequence_json_escapes_as_json_dumps(self, terms):
        assert formats.sequence_to_json(terms) == json.dumps(
            [str(t) for t in terms], indent=2) + "\n"


class TestJacobiFormats:
    def test_round_trip(self):
        params = JacobiParams(
            alpha=(Z, Z + 1, Z + 2),
            beta=(Z, Z * 2),
            a0=Scalar(Fraction(1, 2)),
        )
        text = formats.jacobi_to_json(params)
        assert formats.jacobi_from_json(text) == params
        assert formats.jacobi_to_json(formats.jacobi_from_json(text)) == text

    def test_integer_cells_and_errors(self):
        text = json.dumps({"a0": 2, "alpha": [1, "z"], "beta": [3]})
        assert formats.jacobi_from_json(text) == JacobiParams(
            alpha=(ONE, Z), beta=(Scalar(3),), a0=Scalar(2))
        with pytest.raises(ValueError, match="beta 0: expected a string or an integer"):
            formats.jacobi_from_json(json.dumps({"a0": 1, "alpha": [1, 2], "beta": [0.5]}))
        with pytest.raises(ValueError, match='"alpha" must be a list'):
            formats.jacobi_from_json(json.dumps({"a0": 1, "alpha": "z", "beta": []}))
        with pytest.raises(ValueError, match='"a0", "alpha" and "beta"'):
            formats.jacobi_from_json(json.dumps({"alpha": [], "beta": []}))

    def test_extra_fields(self):
        params = JacobiParams(alpha=(ONE,), beta=())
        text = formats.jacobi_to_json(params, extra={"depth": 1, "finite_support": True})
        data = json.loads(text)
        assert data["depth"] == 1 and data["finite_support"] is True
