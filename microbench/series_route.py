"""Microbenchmark of the two routes of z-free series and arrays: the
integer form of ``erarray.series`` (the route z-free series take) and the
same coefficients over ``Scalar``s (the route of every series with z in
it, and of z-free ones before the integer form; ``over_scalars`` in
tests/oracles.py), on the same pairs.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/series_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/series_route.py --check

The pairs are the six z-free named pairs and one filling of the benchmark's
``triangles`` templates (every f template once, a = 2, b = -1, k = 2), each
at orders 12, 32 and 64.  A pair's series ops are g f, f/g, the
valuation-cancelling f/x, g^-2, exp f, log g, g', the integral of f and
(-5/2) g; its array ops are the entries of ``er_build``, ``er_mul`` of
the array by itself, ``er_inverse`` and ``production_from_pair``.  ``check`` asserts that both
routes give equal coefficients and entries on every case, and that the
integer route keeps the canonical form; ``--check`` runs it alone, and
``main`` runs it before timing.  Under the interpreter's lowest int-to-str
digit limit the check also shows that neither route turns a large int into
a string.

A route's time is the best of five runs, in milliseconds.  The series row
runs all nine ops once.  Each array row builds the array afresh (its
columns and c, r are cached on it) and reads the result's entries, which
an array builds only on first read.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

from erarray.expr import parse_series
from erarray.riordan import er_build, er_inverse, er_mul, production_from_pair
from erarray.sequences import named_pair
from erarray.series import Series, _rational_form

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import over_scalars  # noqa: E402
from workloads import F_TEMPLATES, G_TEMPLATES  # noqa: E402

NAMED = ("stirling2", "binomial", "lah_like", "sets_of_lists", "laguerre", "charlier")
FILLED = tuple((G_TEMPLATES[i % len(G_TEMPLATES)].format(a=2, b="(-1)", k=2),
                f.format(a=2, b="(-1)")) for i, f in enumerate(F_TEMPLATES))
ORDERS = (12, 32, 64)
#: (name, g text or None, f text or None, order); a named pair has no text.
CASES = tuple((name, None, None, n) for n in ORDERS for name in NAMED) + tuple(
    (f"[{g}, {f}]", g, f, n) for n in ORDERS for g, f in FILLED)


def _pair(case):
    name, g, f, n = case
    if g is None:
        return named_pair(name, n)
    return parse_series(g, n), parse_series(f, n)


def series_ops(g: Series, f: Series) -> list[Series]:
    n = g.order
    return [g * f, f / g, f / Series.x(n), g ** -2, f.exp(), g.log(), g.derivative(),
            f.integral(), g.scale(Fraction(-5, 2))]


ARRAY_OPS = {
    "er_build": lambda g, f: er_build(g, f).entries,
    "er_mul": lambda g, f: er_mul(er_build(g, f), er_build(g, f)).entries,
    "er_inverse": lambda g, f: er_inverse(er_build(g, f)).entries,
    "production_from_pair": lambda g, f: production_from_pair(er_build(g, f)).entries,
}


def check(cases=CASES) -> None:
    """Assert that both routes agree on every case and that the integer
    route keeps the canonical form of its coefficients throughout."""
    for case in cases:
        where = f"{case[0]} at order {case[3]}"
        g, f = _pair(case)
        g0, f0 = over_scalars(g), over_scalars(f)
        if g._q is None or f._q is None:
            raise AssertionError(f"{where} is not in the integer form")
        for i, (got, want) in enumerate(zip(series_ops(g, f), series_ops(g0, f0))):
            if got._q != _rational_form(want.coeffs) or want._q is not None:
                raise AssertionError(f"series op {i} differs between the routes on {where}")
        for name, op in ARRAY_OPS.items():
            if op(g, f) != op(g0, f0):
                raise AssertionError(f"{name} differs between the routes on {where}")


def _best_ms(run) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check()
    if "--check" in argv:
        print("series_route: both routes agree on every case")
        return 0
    rows = []
    for case in CASES:
        g, f = _pair(case)
        g0, f0 = over_scalars(g), over_scalars(f)
        ops = {"series ops": series_ops, **ARRAY_OPS}
        for name, op in ops.items():
            integers = _best_ms(lambda: op(g, f))
            scalars = _best_ms(lambda: op(g0, f0))
            rows.append({"pair": case[0], "order": case[3], "op": name,
                         "integers_ms": round(integers, 3), "scalars_ms": round(scalars, 3),
                         "speedup": round(scalars / integers, 2)})
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
