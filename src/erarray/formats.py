"""Serialization: JSON schemas, plain text, LaTeX and OEIS-style b-files.

All emitters use the Scalar canonical string form, so JSON output reparses
to identical values and re-serializes byte-identically.  The reader takes
that form directly, checked once per cell as a whole; any other cell goes
through the expression parser.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from .expr import MAX_DEGREE, parse_scalar
from .orthopoly import JacobiParams, MomentSequence
from .scalars import PolyZ, Scalar, _integer, _polynomial


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- reading scalars --

#: A canonical polynomial, as ``str(PolyZ)`` writes it: terms [c[/d]*]z[^k]
#: or c[/d], d > 0, joined by " + " and " - ", the first one signed by "-".
_TERM = r"(?:\d+(?:/0*[1-9]\d*)?\*)?z(?:\^\d+)?|\d+(?:/0*[1-9]\d*)?"
_POLY = re.compile(rf"-?(?:{_TERM})(?: [-+] (?:{_TERM}))*", re.ASCII)


def _read_poly(text: str) -> PolyZ | None:
    """The polynomial written as ``str(PolyZ)`` writes it, or None; terms
    may come in any order, repeated degrees add up, and a degree above
    ``MAX_DEGREE`` raises ValueError."""
    if _POLY.fullmatch(text) is None:
        return None
    value = Fraction if "/" in text else int
    coeffs = [0]
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, z, power = term.partition("z")
        deg = 0
        if z:
            deg = int(power[1:]) if power else 1
            if deg > MAX_DEGREE:
                raise ValueError(f"z-degree {deg} exceeds the bound {MAX_DEGREE}")
            if deg >= len(coeffs):
                coeffs += [0] * (deg + 1 - len(coeffs))
            coeff = coeff[:-1] if coeff[-1:] == "*" else coeff + "1"
        coeffs[deg] += value(coeff)
    if value is int:
        return PolyZ.from_integers(coeffs)
    common = lcm(*(c.denominator for c in coeffs))
    return PolyZ.from_integers([c.numerator * (common // c.denominator) for c in coeffs], common)


def _read_canonical(text: str) -> Scalar | None:
    """The Scalar written in the canonical ``str(Scalar)`` form, a
    polynomial or "(num)/(den)", or None when ``text`` is not in that form."""
    if not text.startswith("("):
        num = _read_poly(text)
        return None if num is None else _polynomial(num)
    num, sep, den = text[1:-1].partition(")/(")
    if not sep or not text.endswith(")"):
        return None
    num, den = _read_poly(num), _read_poly(den)
    if num is None or den is None or den.is_zero:
        return None
    return Scalar(num, den)


def _read_scalar(text: str) -> Scalar:
    """Read one scalar: the canonical form directly, anything else through
    the expression parser."""
    value = _read_canonical(text)
    return parse_scalar(text) if value is None else value


def _json_kind(value) -> str:
    return {str: "a string", int: "an integer", float: "a non-integer number",
            dict: "an object", list: "a list", bool: "a boolean"}.get(type(value), "null")


def _read_cell(where: str, cell) -> Scalar:
    """A JSON cell: a scalar string or an integer; ``where`` names it in
    errors."""
    if isinstance(cell, str):
        try:
            return _read_scalar(cell)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if isinstance(cell, int) and not isinstance(cell, bool):
        return Scalar(cell)
    raise ValueError(f"{where}: expected a string or an integer, got {_json_kind(cell)}")


def _read_list(what: str, label: str, data) -> list[Scalar]:
    """A JSON list of cells, the i-th named "label i" in errors."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of terms, got {_json_kind(data)}")
    return [_read_cell(f"{label} {i}", cell) for i, cell in enumerate(data)]


# -- triangles (ERArray entries, production matrices, coefficient arrays) --

def _as_rows(entries, lower: bool):
    rows = []
    for n, row in enumerate(entries):
        width = n + 1 if lower else len(row)
        rows.append([str(e) for e in row[:width]])
    return rows


def triangle_to_json(entries, lower: bool = True) -> str:
    rows = _as_rows(entries, lower)
    return _dump({"order": len(rows) - 1, "rows": rows})


def triangle_from_json(text: str):
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError('triangle JSON must be an object with a "rows" list')
    return tuple(tuple(_read_list(f"row {n}", f"row {n} entry", row))
                 for n, row in enumerate(data["rows"]))


def triangle_to_plain(entries, lower: bool = True) -> str:
    rows = _as_rows(entries, lower)
    width = max((len(cell) for row in rows for cell in row), default=1)
    return "\n".join("  ".join(cell.rjust(width) for cell in row) for row in rows) + "\n"


def triangle_to_latex(entries, lower: bool = True) -> str:
    rows = _as_rows(entries, lower)
    size = max(len(row) for row in rows)
    body = " \\\\\n".join(
        " & ".join(row + ["0"] * (size - len(row))) for row in rows
    )
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"


def triangle_to_bfile(entries, lower: bool = True) -> str:
    """Flat "n k value" listing; entries must be plain integers."""
    lines = []
    for n, row in enumerate(entries):
        for k, cell in enumerate(row[:n + 1] if lower else row):
            lines.append(f"{n} {k} {_require_integer(cell)}")
    return "\n".join(lines) + "\n"


def _require_integer(cell) -> int:
    """The integer value of a cell: a Scalar (or an int, Fraction or PolyZ)
    is read directly, anything else as ``int(str(cell))``, so a string that
    spells an integer is written.  A non-integer is refused, naming the
    cell as it prints."""
    s = Scalar._coerce(cell)
    if s is not None:
        value = _integer(s)
    else:
        try:
            value = int(str(cell))
        except ValueError:
            value = None
    if value is None:
        raise ValueError(f"bfile format requires integer entries, got {str(cell)!r}")
    return value


# -- sequences --

def sequence_to_json(terms) -> str:
    """The JSON list of the terms' strings, as ``json.dumps(..., indent=2)``
    writes it, without its pure-Python encoder."""
    cells = [_quote(str(t)) for t in terms]
    return "[\n  " + ",\n  ".join(cells) + "\n]\n" if cells else "[]\n"


def sequence_from_json(text: str) -> list[Scalar]:
    """Read a JSON list whose cells are scalar strings or integers."""
    return _read_list("a JSON sequence", "term", json.loads(text))


def sequence_to_plain(terms) -> str:
    return "\n".join(str(t) for t in terms) + "\n"


def sequence_to_latex(terms) -> str:
    return "\\begin{pmatrix}" + ", ".join(str(t) for t in terms) + "\\end{pmatrix}\n"


def sequence_to_bfile(terms) -> str:
    return "\n".join(f"{n} {_require_integer(t)}" for n, t in enumerate(terms)) + "\n"


def sequence_from_bfile(text: str) -> list[Scalar]:
    """Read "n value" lines (comments starting with # are ignored).

    The lines may come in any order, but their indices must be consecutive
    integers; the first need not be 0 (an OEIS offset).  A gap or a repeated
    index raises ValueError naming the line.
    """
    values: list[tuple[int, int, int]] = []  # (n, line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bfile line {lineno}: expected 'n value', got {raw!r}")
        try:
            values.append((int(parts[0]), lineno, int(parts[1])))
        except ValueError:
            raise ValueError(
                f"bfile line {lineno}: non-integer field in {raw!r}"
            ) from None
    values.sort()
    for (before, first, _), (n, lineno, _) in zip(values, values[1:]):
        if n == before:
            raise ValueError(f"bfile line {lineno}: index {n} repeats line {first}")
        if n != before + 1:
            raise ValueError(
                f"bfile line {lineno}: index {n} leaves a gap after index {before}"
            )
    return [Scalar(v) for _, _, v in values]


# -- Jacobi parameters --

def jacobi_to_json(params: JacobiParams, extra: dict | None = None) -> str:
    payload = {
        "a0": str(params.a0),
        "alpha": [str(a) for a in params.alpha],
        "beta": [str(b) for b in params.beta],
    }
    if extra:
        payload.update(extra)
    return _dump(payload)


def jacobi_from_json(text: str) -> JacobiParams:
    data = json.loads(text)
    if not isinstance(data, dict) or not {"a0", "alpha", "beta"} <= data.keys():
        raise ValueError('Jacobi JSON must be an object with "a0", "alpha" and "beta"')
    return JacobiParams(
        alpha=tuple(_read_list('"alpha"', "alpha", data["alpha"])),
        beta=tuple(_read_list('"beta"', "beta", data["beta"])),
        a0=_read_cell("a0", data["a0"]),
    )


def moments_from_file_text(text: str) -> MomentSequence:
    """Sequence ingestion: a JSON list of scalar strings and integers, or
    b-file lines.  Text that starts like a JSON document is read as JSON."""
    if text.lstrip()[:1] in ("[", "{", '"'):
        return MomentSequence(tuple(sequence_from_json(text)))
    return MomentSequence(tuple(sequence_from_bfile(text)))
