"""Microbenchmark of the two column chains of ``erarray.riordan.er_build``
on z-free pairs: the chain on ints over one denominator per column
(``_columns_by_integers``, the route such pairs take, read off the integer
form of g and f) and the chain of ``Series`` products over Q(z)
(``_columns_by_series``, the route of every pair with z in it), on the same
pairs.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/build_route.py > cases.json

The pairs are the six z-free named pairs and one filling of the benchmark's
``triangles`` templates (every f template once, a = 2, b = -1, k = 2), each
at orders 12, 32, 64 and 96.  ``check`` asserts that both routes give equal
columns on every case, and ``main`` runs it before timing.  A route's time
is the best of five single calls, in milliseconds, including the integer
route's ``Scalar`` columns (``er_build`` itself defers them until the
entries are read).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from erarray import riordan
from erarray.expr import parse_series
from erarray.sequences import named_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import F_TEMPLATES, G_TEMPLATES  # noqa: E402

NAMED = ("stirling2", "binomial", "lah_like", "sets_of_lists", "laguerre", "charlier")
FILLED = tuple((G_TEMPLATES[i % len(G_TEMPLATES)].format(a=2, b="(-1)", k=2),
                f.format(a=2, b="(-1)")) for i, f in enumerate(F_TEMPLATES))
ORDERS = (12, 32, 64, 96)
#: (name, g text or None, f text or None, order); a named pair has no text.
CASES = tuple((name, None, None, n) for n in ORDERS for name in NAMED) + tuple(
    (f"[{g}, {f}]", g, f, n) for n in ORDERS for g, f in FILLED)


def _pair(case):
    name, g, f, n = case
    if g is None:
        return named_pair(name, n)
    return parse_series(g, n), parse_series(f, n)


def by_integers(g, f):
    return riordan._scalar_columns(riordan._columns_by_integers(g._q, f._q))


def check(cases=CASES) -> None:
    """Assert that both routes give equal columns on every case, and that
    each case is z-free, so ``er_build`` takes the integer route."""
    for case in cases:
        g, f = _pair(case)
        if g._q is None or f._q is None:
            raise AssertionError(f"{case[0]} at order {case[3]} is not z-free")
        if by_integers(g, f) != riordan._columns_by_series(g, f):
            raise AssertionError(f"routes disagree on {case[0]} at order {case[3]}")


def _best_ms(route, g, f) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        route(g, f)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> int:
    check()
    rows = []
    for case in CASES:
        g, f = _pair(case)
        integers = _best_ms(by_integers, g, f)
        series = _best_ms(riordan._columns_by_series, g, f)
        rows.append({"pair": case[0], "order": case[3],
                     "integers_ms": round(integers, 3), "series_ms": round(series, 3),
                     "speedup": round(series / integers, 2)})
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
