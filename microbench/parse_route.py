"""Microbenchmark of the text ends of a ``triangles`` job: reading the
closed forms and writing the b-file, on the library route and on the route
before constant folding (``parse_by_peek``, ``eval_series_by_series`` and
``triangle_to_bfile_by_strings`` in tests/oracles.py).

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/parse_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/parse_route.py --check

The texts are the benchmark's ``triangles`` templates, filled twice (a = 2,
b = -1, k = 2 and a = -2, b = 1, k = 1), each g template paired with one f
template as in ``series_route.py``, at orders 6, 12 and 32.  ``parse`` reads
the pair's two texts, ``eval_series`` evaluates their two ASTs, and
``triangle_to_bfile`` writes the entries of the pair's inverse array, which
are integers.  ``check`` asserts that both routes give equal ASTs (spans
included), equal series and the same b-file text on every case; ``--check``
runs it alone, and ``main`` runs it before timing.  Under the interpreter's
lowest int-to-str digit limit the check also shows that neither route
turns a large int into a string, except the b-file's own digits.

A route's time is the best of five runs, in milliseconds.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import astuple
from pathlib import Path

from erarray.expr import eval_series, parse
from erarray.formats import triangle_to_bfile
from erarray.riordan import er_build, er_inverse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import eval_series_by_series, parse_by_peek, triangle_to_bfile_by_strings  # noqa: E402
from workloads import F_TEMPLATES, G_TEMPLATES  # noqa: E402

FILLINGS = ({"a": 2, "b": "(-1)", "k": 2}, {"a": "(-2)", "b": 1, "k": 1})
PAIRS = tuple((G_TEMPLATES[i % len(G_TEMPLATES)].format(**fill), f.format(**fill))
              for fill in FILLINGS for i, f in enumerate(F_TEMPLATES))
ORDERS = (6, 12, 32)
#: (g text, f text, order).
CASES = tuple((g, f, n) for n in ORDERS for g, f in PAIRS)

ROUTES = {
    "library": (parse, eval_series, triangle_to_bfile),
    "oracle": (parse_by_peek, eval_series_by_series, triangle_to_bfile_by_strings),
}


def _entries(g, f, n):
    """The entries of the inverse of [g, f] at order n, built once."""
    return er_inverse(er_build(eval_series(parse(g), n), eval_series(parse(f), n))).entries


def check(cases=CASES) -> None:
    """Assert that both routes agree on every case."""
    for g, f, n in cases:
        where = f"[{g}, {f}] at order {n}"
        for text in (g, f):
            ast, want = parse(text), parse_by_peek(text)
            if ast != want or astuple(ast) != astuple(want):
                raise AssertionError(f"the ASTs of {text} differ between the routes")
            if eval_series(ast, n) != eval_series_by_series(want, n):
                raise AssertionError(f"the series of {text} differ between the routes at order {n}")
        entries = _entries(g, f, n)
        if triangle_to_bfile(entries) != triangle_to_bfile_by_strings(entries):
            raise AssertionError(f"the b-file of the inverse of {where} differs between the routes")


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
        print("parse_route: both routes agree on every case")
        return 0
    rows = []
    for g, f, n in CASES:
        entries = _entries(g, f, n)
        times = {}
        for route, (read, evaluate, write) in ROUTES.items():
            asts = [read(g), read(f)]
            times[route] = {
                "parse": _best_ms(lambda: [read(g), read(f)]),
                "eval_series": _best_ms(lambda: [evaluate(a, n) for a in asts]),
                "triangle_to_bfile": _best_ms(lambda: write(entries)),
            }
        for op in times["library"]:
            library, oracle = times["library"][op], times["oracle"][op]
            rows.append({"pair": f"[{g}, {f}]", "order": n, "op": op,
                         "library_ms": round(library, 4), "oracle_ms": round(oracle, 4),
                         "speedup": round(oracle / library, 2)})
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
