"""Command-line driver: build and inspect arrays, production matrices,
moments and Hankel transforms, and run the verification suites.

Exit status contract: 0 on full success, 1 on verification failure, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import formats
from .expr import EvalError, ParseError, parse_series, parse_scalar
from .hankel import binomial_transform, hankel_from_betas, hankel_transform
from .orthopoly import MomentSequence, jacobi_from_moments, moments_from_jacobi
from .riordan import (
    ERArray,
    er_build,
    er_inverse,
    er_mul,
    er_power,
    extract_jacobi,
    production_direct,
    production_from_pair,
)
from .scalars import ONE, Scalar, Z
from .sequences import (
    NAMED_PAIR_NAMES,
    bell_poly,
    eulerian_poly,
    eulerian_triangle,
    named_pair,
    stirling2,
    stirling_triangle,
)
from .series import Series

FORMATS = ("json", "plain", "latex", "bfile")


@dataclass
class RunConfig:
    order: int = 12
    fmt: str = "plain"
    z_value: Fraction | None = None

    def __post_init__(self):
        if not 2 <= self.order <= 64:
            raise ValueError(f"order must be between 2 and 64, got {self.order}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")


def _config(args) -> RunConfig:
    z_value = Fraction(args.z) if getattr(args, "z", None) else None
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
    p_pair = production_from_pair(a)
    shown = p_pair.entries[: a.order]
    if args.method == "direct":
        shown = production_direct(a).entries[: a.order]
    _emit_triangle(shown, cfg, lower=False)
    if args.method == "both":
        agree = p_pair.entries[: a.order] == production_direct(a).entries[: a.order]
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
    poly = bell_poly(args.n) if args.which == "bell" else eulerian_poly(args.n)
    coeffs = [Scalar(c) for c in poly.coeffs]
    if args.fmt == "json":
        sys.stdout.write(formats.sequence_to_json(coeffs))
    elif args.fmt == "bfile":
        sys.stdout.write(formats.sequence_to_bfile(coeffs))
    elif args.fmt == "latex":
        sys.stdout.write(formats.sequence_to_latex(coeffs))
    else:
        print(poly)
    return 0


# ---------------------------------------------------------- verification

def _fmt_rows(rows) -> str:
    return "[" + "; ".join(
        "(" + ", ".join(str(e) for e in row) + ")" for row in rows
    ) + "]"


class _Report:
    def __init__(self):
        self.failures = 0

    def check(self, name: str, expected, actual) -> None:
        ok = expected == actual
        if ok:
            print(f"PASS {name}")
        else:
            self.failures += 1
            print(f"FAIL {name}")
            print(f"  expected: {expected}")
            print(f"  actual:   {actual}")

    def check_true(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            print(f"PASS {name}")
        else:
            self.failures += 1
            print(f"FAIL {name}" + (f": {detail}" if detail else ""))


def _tridiagonal_rows(alpha_of, beta_of, order: int, width: int):
    """Expected tridiagonal production rows 0..order-1 with unit superdiagonal."""
    rows = []
    for i in range(order):
        row = [Scalar(0)] * width
        if i >= 1:
            row[i - 1] = beta_of(i)
        row[i] = alpha_of(i)
        row[i + 1] = ONE
        rows.append(tuple(row))
    return tuple(rows)


def _hankel_expected(power_base: Scalar, factorial_power: int, nmax: int):
    """z-power times factorial-product closed forms of the two corollaries."""
    out = []
    for n in range(nmax + 1):
        h = power_base ** comb(n + 1, 2)
        for k in range(1, n + 1):
            h = h * (factorial(k) ** factorial_power)
        out.append(h)
    return out


def _verify_production(report: _Report, label: str, a: ERArray, alpha_of, beta_of):
    n = a.order
    p_pair = production_from_pair(a)
    expected = _tridiagonal_rows(alpha_of, beta_of, n, n + 1)
    report.check(
        f"{label}: production matrix (pair method) is the displayed tridiagonal",
        _fmt_rows(expected),
        _fmt_rows(p_pair.entries[:n]),
    )
    p_direct = production_direct(a)
    report.check_true(
        f"{label}: production methods agree on rows 0..{n - 1}",
        p_pair.entries[:n] == p_direct.entries[:n],
    )
    return p_pair


def _verify_thm1(report: _Report, order: int) -> None:
    g, f = named_pair("thm1", order)
    a = er_build(g, f)
    n = order
    p = _verify_production(
        report, "thm1", a,
        alpha_of=lambda i: Z + i, beta_of=lambda i: Z * i,
    )
    moments = a.moments()
    report.check(
        "thm1: first column equals the exponential polynomials e_n(z)",
        [str(Scalar(bell_poly(k))) for k in range(n + 1)],
        [str(m) for m in moments],
    )
    nmax = n // 2
    terms = [Scalar(bell_poly(k)) for k in range(2 * nmax + 1)]
    report.check(
        "thm1: Hankel transform of e_n(z) is z^C(n+1,2) prod k!",
        [str(h) for h in _hankel_expected(Z, 1, nmax)],
        [str(h) for h in hankel_transform(terms, nmax)],
    )
    params = extract_jacobi(p)
    report.check_true(
        "thm1: Jacobi parameters are alpha_n = z + n, beta_n = n z",
        params.alpha == tuple(Z + i for i in range(n))
        and params.beta == tuple(Z * i for i in range(1, n)),
    )
    betas = hankel_from_betas(params, min(nmax, len(params.beta)))
    report.check_true(
        "thm1: beta-product formula matches the Hankel transform",
        betas == hankel_transform(terms, min(nmax, len(params.beta))),
    )
    inv = er_inverse(a)
    x = Series.x(order)
    expected_inv = er_build((x * (-Z)).exp(), (Series.one(order) + x).log())
    report.check_true(
        "thm1: inverse array is [exp(-z x), log(1+x)]",
        inv.entries == expected_inv.entries,
    )
    ok = True
    for r in range(n + 1):
        for k in range(r + 1):
            expected_entry = sum(
                (Scalar(stirling2(r, j) * comb(j, k)) * Z ** (j - k)
                 for j in range(k, r + 1)),
                Scalar(0),
            )
            ok = ok and expected_entry == a.entries[r][k]
    report.check_true(
        "thm1: factorization L(n,k) = sum_j S(n,j) C(j,k) z^(j-k)", ok
    )
    sums = a.row_sums()
    nmax_rs = n // 2
    report.check(
        "thm1: Hankel transform of the row sums is (z+1)^C(n+1,2) prod k!",
        [str(h) for h in _hankel_expected(Z + 1, 1, nmax_rs)],
        [str(h) for h in hankel_transform(sums, nmax_rs)],
    )


def _verify_thm2(report: _Report, order: int) -> None:
    g, f = named_pair("thm2", order)
    a = er_build(g, f)
    n = order
    _verify_production(
        report, "thm2", a,
        alpha_of=lambda i: Z * (i + 1) + i, beta_of=lambda i: Z * (i * i),
    )
    report.check(
        "thm2: first column equals the Eulerian polynomials EU_n(z)",
        [str(Scalar(eulerian_poly(k))) for k in range(n + 1)],
        [str(m) for m in a.moments()],
    )
    nmax = n // 2
    terms = [Scalar(eulerian_poly(k)) for k in range(2 * nmax + 1)]
    report.check(
        "thm2: Hankel transform of EU_n(z) is z^C(n+1,2) prod k!^2",
        [str(h) for h in _hankel_expected(Z, 2, nmax)],
        [str(h) for h in hankel_transform(terms, nmax)],
    )
    x = Series.x(order)
    one = Series.one(order)
    fbar = ((one + x * Z).log() - (one + x).log()) * (ONE / (Z - 1))
    # g o fbar evaluates to 1 + z x, so the inverse g-part is its reciprocal.
    expected_inv = er_build(one / (one + x * Z), fbar)
    inv = er_inverse(a)
    report.check_true(
        "thm2: inverse array is [1/(1+zx), log((1+zx)/(1+x))/(z-1)]",
        inv.entries == expected_inv.entries
        and er_mul(a, inv).entries == er_build(one, x).entries,
    )
    laguerre_entries = tuple(
        tuple(Scalar(factorial(r) // factorial(k) * comb(r, k)) for k in range(r + 1))
        for r in range(n + 1)
    )
    at_one = tuple(
        tuple(Scalar(e.eval_z(1)) for e in a.entries[r][: r + 1])
        for r in range(n + 1)
    )
    report.check_true(
        "thm2: entries at z = 1 equal the Laguerre-type array (n!/k!) C(n,k)",
        at_one == laguerre_entries,
    )
    inv_at_one = tuple(
        tuple(Scalar(e.eval_z(1)) for e in inv.entries[r][: r + 1])
        for r in range(n + 1)
    )
    signed = tuple(
        tuple(
            Scalar((-1) ** (r - k) * (factorial(r) // factorial(k)) * comb(r, k))
            for k in range(r + 1)
        )
        for r in range(n + 1)
    )
    report.check_true(
        "thm2: inverse entries at z = 1 are the signed Laguerre coefficients",
        inv_at_one == signed,
    )


def _verify_examples(report: _Report, order: int) -> None:
    n = order
    x = Series.x(n)
    one = Series.one(n)

    binomial = er_build(*named_pair("binomial", n))
    report.check_true(
        "examples: [e^x, x] realizes Pascal's triangle",
        all(
            binomial.entries[r][k] == Scalar(comb(r, k))
            for r in range(n + 1) for k in range(r + 1)
        ),
    )
    cubed = er_power(binomial, 3)
    report.check_true(
        "examples: [e^x, x]^3 = [e^{3x}, x]",
        cubed.entries == er_build((x * 3).exp(), x).entries,
    )

    lah = er_build(*named_pair("lah_like", n))
    report.check_true(
        "examples: [1/(1-x), x] has general term n!/k!",
        all(
            lah.entries[r][k] == Scalar(factorial(r) // factorial(k))
            for r in range(n + 1) for k in range(r + 1)
        ),
    )
    p_lah = production_from_pair(lah)
    # Entries fixed by the generating function e^{tw}(1/(1-w) + t): the
    # array itself plus a unit superdiagonal.
    expected_p_lah = tuple(
        tuple(
            (Scalar(factorial(i) // factorial(j)) if j <= i
             else ONE if j == i + 1 else Scalar(0))
            for j in range(n + 1)
        )
        for i in range(n)
    )
    report.check_true(
        "examples: production of [1/(1-x), x] matches its generating function",
        p_lah.entries[:n] == expected_p_lah,
    )
    report.check_true(
        "examples: inverse of [1/(1-x), x] is [1-x, x]",
        er_inverse(lah).entries == er_build(one - x, x).entries,
    )

    sol = er_build(*named_pair("sets_of_lists", n))
    expected_sol = tuple(
        tuple(
            Scalar(1) if r == 0 and k == 0
            else Scalar((factorial(r) // factorial(k)) * comb(r - 1, r - k))
            for k in range(r + 1)
        )
        for r in range(n + 1)
    )
    report.check_true(
        "examples: [1, x/(1-x)] has general term (n!/k!) C(n-1, n-k)",
        tuple(tuple(sol.entries[r][: r + 1]) for r in range(n + 1)) == expected_sol,
    )
    report.check(
        "examples: row sums of [1, x/(1-x)] count sets of lists",
        ["1", "1", "3", "13", "73", "501"],
        [str(s) for s in sol.row_sums()[:6]],
    )
    report.check_true(
        "examples: inverse of [1, x/(1-x)] is [1, x/(1+x)]",
        er_inverse(sol).entries == er_build(one, x / (one + x)).entries,
    )
    displayed_sol = (
        (0, 1), (0, 2, 1), (0, 2, 4, 1), (0, 0, 6, 6, 1),
        (0, 0, 0, 12, 8, 1), (0, 0, 0, 0, 20, 10),
    )
    p_sol = production_from_pair(sol)
    report.check_true(
        "examples: production of [1, x/(1-x)] matches the displayed matrix",
        all(
            p_sol.entries[i][j] == Scalar(v)
            for i, row in enumerate(displayed_sol) for j, v in enumerate(row)
        ),
    )

    lag = er_build(*named_pair("laguerre", n))
    report.check_true(
        "examples: [1/(1-x), x/(1-x)] has general term (n!/k!) C(n,k)",
        all(
            lag.entries[r][k] == Scalar((factorial(r) // factorial(k)) * comb(r, k))
            for r in range(n + 1) for k in range(r + 1)
        ),
    )
    displayed_lag = (
        (1, 1), (1, 3, 1), (0, 4, 5, 1), (0, 0, 9, 7, 1),
        (0, 0, 0, 16, 9, 1), (0, 0, 0, 0, 25, 11),
    )
    p_lag = production_from_pair(lag)
    report.check_true(
        "examples: production of [1/(1-x), x/(1-x)] matches the displayed matrix",
        all(
            p_lag.entries[i][j] == Scalar(v)
            for i, row in enumerate(displayed_lag) for j, v in enumerate(row)
        ),
    )
    inv_lag = er_inverse(lag)
    report.check_true(
        "examples: inverse of [1/(1-x), x/(1-x)] is the signed Laguerre array",
        all(
            inv_lag.entries[r][k]
            == Scalar((-1) ** (r - k) * (factorial(r) // factorial(k)) * comb(r, k))
            for r in range(n + 1) for k in range(r + 1)
        ),
    )
    params = extract_jacobi(p_lag)
    report.check_true(
        "examples: Laguerre-type Jacobi data is alpha_n = 2n+1, beta_n = n^2",
        params.alpha == tuple(Scalar(2 * i + 1) for i in range(n))
        and params.beta == tuple(Scalar(i * i) for i in range(1, n)),
    )
    report.check(
        "examples: moments of [1/(1-x), x/(1-x)] are the factorials",
        [str(factorial(k)) for k in range(n + 1)],
        [str(m) for m in lag.moments()],
    )

    charlier = er_build(*named_pair("charlier", n))
    displayed_charlier = (
        (1,), (1, 1), (1, 3, 1), (1, 8, 6, 1), (1, 24, 29, 10, 1),
        (1, 89, 145, 75, 15, 1),
    )
    report.check_true(
        "examples: [e^x, log(1/(1-x))] matches the displayed rows",
        all(
            charlier.entries[r][k] == Scalar(v)
            for r, row in enumerate(displayed_charlier) for k, v in enumerate(row)
        ),
    )
    inv_charlier = er_inverse(charlier)
    emx = (x * (-1)).exp()
    report.check_true(
        "examples: inverse of the Charlier array is [e^{-(1-e^{-x})}, 1-e^{-x}]",
        inv_charlier.entries
        == er_build(((one - emx) * (-1)).exp(), one - emx).entries,
    )
    p_inv = production_from_pair(inv_charlier)
    expected_tri = _tridiagonal_rows(
        lambda i: Scalar(-(i + 1)), lambda i: Scalar(i), n, n + 1
    )
    report.check(
        "examples: production of the Charlier inverse is the displayed tridiagonal",
        _fmt_rows(expected_tri),
        _fmt_rows(p_inv.entries[:n]),
    )


def cmd_verify(args) -> int:
    cfg = _config(args)
    report = _Report()
    if args.target in ("thm1", "all"):
        _verify_thm1(report, cfg.order)
    if args.target in ("thm2", "all"):
        _verify_thm2(report, cfg.order)
    if args.target in ("examples", "all"):
        _verify_examples(report, cfg.order)
    total = "all checks passed" if report.failures == 0 \
        else f"{report.failures} check(s) failed"
    print(total)
    return 0 if report.failures == 0 else 1


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
    p.set_defaults(func=cmd_array)

    p = sub.add_parser("inverse", help="group inverse of [g, f]")
    _add_common(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("multiply", help="group product of two arrays")
    _add_common(p)
    p.add_argument("--g2")
    p.add_argument("--f2")
    p.add_argument("--name2", choices=NAMED_PAIR_NAMES)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("prodmat", help="production (Stieltjes) matrix")
    _add_common(p)
    p.add_argument("--method", choices=("pair", "direct", "both"), default="pair")
    p.set_defaults(func=cmd_prodmat)

    p = sub.add_parser("jacobi", help="Jacobi parameters from a pair or moments")
    _add_common(p)
    p.add_argument("--in", dest="infile", help="moment sequence file (json or bfile)")
    p.add_argument("terms", nargs="*", help="inline moment terms")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("moments", help="moment sequence of a pair or Jacobi data")
    _add_common(p)
    p.add_argument("--in", dest="infile", help="JacobiParams JSON file")
    p.add_argument("--count", type=int, help="highest moment index")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("hankel", help="Hankel transform of a sequence")
    _add_common(p, pair=False)
    p.add_argument("--in", dest="infile", help="sequence file (json or bfile)")
    p.add_argument("--nmax", type=int, help="highest determinant index")
    p.add_argument("terms", nargs="*", help="inline sequence terms")
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("binom", help="binomial transform of a sequence")
    _add_common(p, pair=False)
    p.add_argument("--in", dest="infile", help="sequence file (json or bfile)")
    p.add_argument("terms", nargs="*", help="inline sequence terms")
    p.set_defaults(func=cmd_binom)

    p = sub.add_parser("triangle", help="stirling2 or eulerian number triangle")
    p.add_argument("which", choices=("stirling2", "eulerian"))
    _add_common(p, pair=False)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("poly", help="bell or eulerian polynomial")
    p.add_argument("which", choices=("bell", "eulerian"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="plain")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="recheck the classical identities exactly")
    p.add_argument("target", choices=("thm1", "thm2", "examples", "all"))
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="plain")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
