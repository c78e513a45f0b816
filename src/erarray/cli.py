"""Command-line driver: build and inspect arrays, production matrices,
moments and Hankel transforms, and run the verification suites.

Exit status contract: 0 on full success, 1 on verification failure, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction

from . import checks, formats
from .expr import parse_series, parse_scalar
from .hankel import binomial_transform, hankel_transform
from .orthopoly import MomentSequence, jacobi_from_moments, moments_from_jacobi
from .riordan import (
    ERArray,
    er_build,
    er_inverse,
    er_mul,
    extract_jacobi,
    production_direct,
    production_from_pair,
)
from .scalars import Scalar
from .sequences import (
    NAMED_PAIR_NAMES,
    bell_poly,
    eulerian_poly,
    eulerian_triangle,
    named_pair,
    stirling_triangle,
)

FORMATS = ("json", "plain", "latex", "bfile")

#: The largest ``--order``, and the largest ``poly --n``.
MAX_ORDER = 64


@dataclass
class RunConfig:
    order: int = 12
    fmt: str = "plain"
    z_value: Fraction | None = None

    def __post_init__(self):
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be between 2 and {MAX_ORDER}, got {self.order}")


def _config(args) -> RunConfig:
    z_value = None
    if getattr(args, "z", None):
        try:
            z_value = Fraction(args.z)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--z needs a rational P/Q, got {args.z!r}") from None
    return RunConfig(order=args.order, fmt=args.fmt, z_value=z_value)


def _resolve_pair(args, cfg: RunConfig, suffix: str = "") -> ERArray:
    name = getattr(args, "name" + suffix, None)
    g_expr = getattr(args, "g" + suffix, None)
    f_expr = getattr(args, "f" + suffix, None)
    if name:
        g, f = named_pair(name, cfg.order)
    elif g_expr and f_expr:
        g = parse_series(g_expr, cfg.order)
        f = parse_series(f_expr, cfg.order)
    else:
        raise ValueError(
            "need --name NAME or both --g EXPR and --f EXPR"
            + (f" (with suffix {suffix})" if suffix else "")
        )
    return er_build(g, f)


def _specialize(rows, z_value: Fraction | None):
    if z_value is None:
        return rows
    out = []
    for row in rows:
        cells = []
        for entry in row:
            try:
                cells.append(Scalar(entry.eval_z(z_value)))
            except ZeroDivisionError:
                cells.append(f"pole at z = {z_value}")
        out.append(tuple(cells))
    return tuple(out)


def _emit_triangle(rows, cfg: RunConfig, lower: bool = True) -> None:
    rows = _specialize(rows, cfg.z_value)
    emit = {
        "json": formats.triangle_to_json,
        "plain": formats.triangle_to_plain,
        "latex": formats.triangle_to_latex,
        "bfile": formats.triangle_to_bfile,
    }[cfg.fmt]
    sys.stdout.write(emit(rows, lower=lower))


def _emit_sequence(terms, cfg: RunConfig) -> None:
    terms = _specialize([terms], cfg.z_value)[0]
    emit = {
        "json": formats.sequence_to_json,
        "plain": formats.sequence_to_plain,
        "latex": formats.sequence_to_latex,
        "bfile": formats.sequence_to_bfile,
    }[cfg.fmt]
    sys.stdout.write(emit(terms))


def _read_sequence(args) -> MomentSequence:
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8") as handle:
            return formats.moments_from_file_text(handle.read())
    if getattr(args, "terms", None):
        return MomentSequence(tuple(parse_scalar(t) for t in args.terms))
    raise ValueError("need --in FILE or inline TERM arguments")


# ---------------------------------------------------------------- commands

def cmd_array(args) -> int:
    cfg = _config(args)
    a = _resolve_pair(args, cfg)
    _emit_triangle(a.entries, cfg)
    return 0


def cmd_inverse(args) -> int:
    cfg = _config(args)
    a = er_inverse(_resolve_pair(args, cfg))
    _emit_triangle(a.entries, cfg)
    return 0


def cmd_multiply(args) -> int:
    cfg = _config(args)
    a = _resolve_pair(args, cfg)
    b = _resolve_pair(args, cfg, suffix="2")
    _emit_triangle(er_mul(a, b).entries, cfg)
    return 0


def cmd_prodmat(args) -> int:
    cfg = _config(args)
    a = _resolve_pair(args, cfg)
    method = production_direct if args.method == "direct" else production_from_pair
    shown = method(a).entries[: a.order]
    _emit_triangle(shown, cfg, lower=False)
    if args.method == "both":
        agree = shown == production_direct(a).entries[: a.order]
        print(f"{'AGREE' if agree else 'DISAGREE'} rows 0..{a.order - 1}")
        return 0 if agree else 1
    return 0


def cmd_jacobi(args) -> int:
    cfg = _config(args)
    if getattr(args, "infile", None) or getattr(args, "terms", None):
        recovery = jacobi_from_moments(_read_sequence(args))
        sys.stdout.write(
            formats.jacobi_to_json(
                recovery.params,
                extra={
                    "depth": recovery.depth,
                    "finite_support": recovery.finite_support,
                },
            )
        )
        return 0
    a = _resolve_pair(args, cfg)
    params = extract_jacobi(production_from_pair(a))
    sys.stdout.write(formats.jacobi_to_json(params))
    return 0


def cmd_moments(args) -> int:
    cfg = _config(args)
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8") as handle:
            params = formats.jacobi_from_json(handle.read())
        count = args.count if args.count is not None else params.depth
        _emit_sequence(moments_from_jacobi(params, count).terms, cfg)
        return 0
    a = _resolve_pair(args, cfg)
    terms = a.moments()
    if args.count is not None:
        if args.count < 0:
            raise ValueError(f"count must be >= 0, got {args.count}")
        if args.count > a.order:
            raise ValueError(f"count {args.count} exceeds order {a.order}")
        terms = terms[: args.count + 1]
    _emit_sequence(terms, cfg)
    return 0


def cmd_hankel(args) -> int:
    cfg = _config(args)
    seq = _read_sequence(args)
    nmax = args.nmax if args.nmax is not None else (len(seq.terms) - 1) // 2
    _emit_sequence(tuple(hankel_transform(seq, nmax)), cfg)
    return 0


def cmd_binom(args) -> int:
    cfg = _config(args)
    seq = _read_sequence(args)
    _emit_sequence(binomial_transform(seq).terms, cfg)
    return 0


def cmd_triangle(args) -> int:
    cfg = _config(args)
    tri = stirling_triangle(cfg.order) if args.which == "stirling2" \
        else eulerian_triangle(cfg.order)
    _emit_triangle(tuple(tuple(Scalar(v) for v in row) for row in tri.rows), cfg)
    return 0


def cmd_poly(args) -> int:
    if args.n > MAX_ORDER:
        raise ValueError(f"--n must be at most {MAX_ORDER}, got {args.n}")
    poly = bell_poly(args.n) if args.which == "bell" else eulerian_poly(args.n)
    if args.fmt == "plain":
        print(poly)
    else:
        _emit_sequence([Scalar(c) for c in poly.coeffs], RunConfig(fmt=args.fmt))
    return 0


# ---------------------------------------------------------- verification

def cmd_verify(args) -> int:
    order = RunConfig(order=args.order).order
    targets = checks.SUITES if args.target == "all" else (args.target,)
    failures = 0
    for target in targets:
        for name, ok, detail in checks.SUITES[target](order):
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            if not ok:
                failures += 1
                if detail:
                    print(textwrap.indent(detail, "  "))
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------- arg parsing

def _add_common(sub, pair: bool = True):
    sub.add_argument("--order", type=int, default=12)
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="plain")
    sub.add_argument("--z", help="specialize z to P/Q after computation")
    if pair:
        sub.add_argument("--g", help="generating function g as an expression")
        sub.add_argument("--f", help="generating function f as an expression")
        sub.add_argument("--name", choices=NAMED_PAIR_NAMES,
                         help="built-in defining pair")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erarray",
        description="Exact exponential Riordan arrays, production matrices, "
                    "moments and Hankel transforms over Q(z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("array", help="build [g, f] and print the triangle")
    _add_common(p)

    p = sub.add_parser("inverse", help="group inverse of [g, f]")
    _add_common(p)

    p = sub.add_parser("multiply", help="group product of two arrays")
    _add_common(p)
    p.add_argument("--g2")
    p.add_argument("--f2")
    p.add_argument("--name2", choices=NAMED_PAIR_NAMES)

    p = sub.add_parser("prodmat", help="production (Stieltjes) matrix")
    _add_common(p)
    p.add_argument("--method", choices=("pair", "direct", "both"), default="pair")

    p = sub.add_parser("jacobi", help="Jacobi parameters from a pair or moments")
    _add_common(p)
    p.add_argument("--in", dest="infile", help="moment sequence file (json or bfile)")
    p.add_argument("terms", nargs="*", help="inline moment terms")

    p = sub.add_parser("moments", help="moment sequence of a pair or Jacobi data")
    _add_common(p)
    p.add_argument("--in", dest="infile", help="JacobiParams JSON file")
    p.add_argument("--count", type=int, help="highest moment index")

    p = sub.add_parser("hankel", help="Hankel transform of a sequence")
    _add_common(p, pair=False)
    p.add_argument("--in", dest="infile", help="sequence file (json or bfile)")
    p.add_argument("--nmax", type=int, help="highest determinant index")
    p.add_argument("terms", nargs="*", help="inline sequence terms")

    p = sub.add_parser("binom", help="binomial transform of a sequence")
    _add_common(p, pair=False)
    p.add_argument("--in", dest="infile", help="sequence file (json or bfile)")
    p.add_argument("terms", nargs="*", help="inline sequence terms")

    p = sub.add_parser("triangle", help="stirling2 or eulerian number triangle")
    p.add_argument("which", choices=("stirling2", "eulerian"))
    _add_common(p, pair=False)

    p = sub.add_parser("poly", help="bell or eulerian polynomial")
    p.add_argument("which", choices=("bell", "eulerian"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="plain")

    p = sub.add_parser("verify", help="recheck the classical identities exactly")
    p.add_argument("target", choices=(*checks.SUITES, "all"))
    p.add_argument("--order", type=int, default=12)

    return parser


_parser = None


def main(argv=None) -> int:
    # The parser is built on the first call, not at import, and reused.  The
    # command runs as ``cmd_<name>`` looked up at call time, so a rebinding
    # of a command function (a wrapper, a test double) takes effect.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
