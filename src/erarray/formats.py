"""Serialization: JSON schemas, plain text, LaTeX and OEIS-style b-files.

All emitters use the Scalar canonical string form, so JSON output reparses
to identical values and re-serializes byte-identically.
"""

from __future__ import annotations

import json

from .expr import parse_scalar
from .orthopoly import JacobiParams, MomentSequence
from .scalars import Scalar


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def scalar_from_string(text: str) -> Scalar:
    return parse_scalar(text)


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
    return tuple(
        tuple(scalar_from_string(cell) for cell in row) for row in data["rows"]
    )


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
    rows = _as_rows(entries, lower)
    lines = []
    for n, row in enumerate(rows):
        for k, cell in enumerate(row):
            value = _require_integer(cell)
            lines.append(f"{n} {k} {value}")
    return "\n".join(lines) + "\n"


def _require_integer(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(
            f"bfile format requires integer entries, got {cell!r}"
        ) from None


# -- sequences --

def sequence_to_json(terms) -> str:
    return _dump([str(t) for t in terms])


def sequence_from_json(text: str) -> list[Scalar]:
    data = json.loads(text)
    return [scalar_from_string(cell) for cell in data]


def sequence_to_plain(terms) -> str:
    return "\n".join(str(t) for t in terms) + "\n"


def sequence_to_latex(terms) -> str:
    return "\\begin{pmatrix}" + ", ".join(str(t) for t in terms) + "\\end{pmatrix}\n"


def sequence_to_bfile(terms) -> str:
    lines = []
    for n, t in enumerate(terms):
        lines.append(f"{n} {_require_integer(str(t))}")
    return "\n".join(lines) + "\n"


def sequence_from_bfile(text: str) -> list[Scalar]:
    """Read "n value" lines (comments starting with # are ignored)."""
    values: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bfile line {lineno}: expected 'n value', got {raw!r}")
        try:
            values.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(
                f"bfile line {lineno}: non-integer field in {raw!r}"
            ) from None
    values.sort()
    return [Scalar(v) for _, v in values]


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
    return JacobiParams(
        alpha=tuple(scalar_from_string(a) for a in data["alpha"]),
        beta=tuple(scalar_from_string(b) for b in data["beta"]),
        a0=scalar_from_string(data["a0"]),
    )


def moments_from_file_text(text: str) -> MomentSequence:
    """Sequence ingestion: JSON list of scalar strings, or b-file lines."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        return MomentSequence(tuple(sequence_from_json(text)))
    return MomentSequence(tuple(sequence_from_bfile(text)))
