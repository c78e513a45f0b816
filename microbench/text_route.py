"""Microbenchmark of the text ends of a ``hankel`` job: writing a moment
sequence as JSON and reading it back, on the library route and on the route
before the reader checked a cell as a whole (``scalar_str_by_parts``, which
writes one reduced fraction per coefficient, with ``json.dumps``, and
``read_scalar_by_terms``, one regex match per term and every quotient taken
by the constructor, in tests/oracles.py).

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/text_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/text_route.py --check

The sequences are the moments of the 42 jobs of the benchmark's ``hankel``
workload at seed 1 (count 2n, one document per job, a fifth of them
rational), and those of the paper's two theorems (thm1: alpha_n = z + n,
beta_n = n z; thm2: alpha_n = (n+1) z + n, beta_n = n^2 z) at depth and
count N for N in ORDERS; the largest coefficient, in thm2 at order 128, has
215 digits.  ``check`` asserts that both writers give the same text byte
for byte and that both readers give the Scalars written, on every case;
``--check`` runs it alone, and ``main`` runs it before timing.  Under the
interpreter's lowest int-to-str digit limit the check also shows that no
route turns a large int into a string, except the digits of the text.  A
case's time is the best of five passes over all its documents, in
milliseconds, the two routes taking turns.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import erarray
from erarray.formats import sequence_from_json, sequence_to_json
from erarray.orthopoly import moments_from_jacobi

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "microbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import read_scalar_by_terms, scalar_str_by_parts  # noqa: E402
from walk_route import THEOREMS  # noqa: E402
from workloads import Hankel  # noqa: E402

ORDERS = (32, 64, 96, 128)


def write_by_parts(terms) -> str:
    return json.dumps([scalar_str_by_parts(t) for t in terms], indent=2) + "\n"


def read_by_terms(text: str) -> list:
    return [read_scalar_by_terms(cell) for cell in json.loads(text)]


ROUTES = {"library": (sequence_to_json, sequence_from_json),
          "oracle": (write_by_parts, read_by_terms)}


def cases(orders=ORDERS) -> list:
    """(case, order, sequences) for the ``hankel`` jobs and the theorems at
    each order."""
    out = [("hankel seed 1, 42 jobs", None, [moments_from_jacobi(params, 2 * n).terms
                                             for n, params in Hankel().make_jobs(erarray, 1)])]
    out += [(name, n, [moments_from_jacobi(params(n), n).terms])
            for name, params in THEOREMS.items() for n in orders]
    return out


def check(orders=ORDERS) -> None:
    """Assert that both writers give the same text and both readers the
    Scalars written, on every sequence."""
    for name, n, sequences in cases(orders):
        for i, terms in enumerate(sequences):
            text = sequence_to_json(terms)
            if text != write_by_parts(terms):
                raise AssertionError(f"the texts of {name} at order {n}, sequence {i}, differ")
            if sequence_from_json(text) != list(terms) or read_by_terms(text) != list(terms):
                raise AssertionError(f"a reader of {name} at order {n}, sequence {i}, "
                                     "does not give the Scalars written")


def _best_ms(runs: dict) -> dict:
    """The best of five calls of each run, in milliseconds; the routes take
    turns, in alternating order, so a slow phase of the host falls on
    both."""
    best = dict.fromkeys(runs, float("inf"))
    for i in range(5):
        for route in (list(runs) if i % 2 else list(runs)[::-1]):
            start = time.perf_counter()
            runs[route]()
            best[route] = min(best[route], time.perf_counter() - start)
    return {route: t * 1e3 for route, t in best.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check()
    if "--check" in argv:
        print("text_route: both writers give the same text and both readers the Scalars written")
        return 0
    rows = []
    for name, n, sequences in cases():
        texts = [sequence_to_json(terms) for terms in sequences]
        row = {"case": name, "order": n, "terms": sum(map(len, sequences)),
               "bytes": sum(map(len, texts))}
        for op, pick, inputs in (("write", 0, sequences), ("read", 1, texts)):
            ms = _best_ms({route: (lambda f=fs[pick]: [f(x) for x in inputs])
                           for route, fs in ROUTES.items()})
            row.update({f"{op}_{route}_ms": round(t, 3) for route, t in ms.items()})
            row[f"{op}_speedup"] = round(ms["oracle"] / ms["library"], 2)
        rows.append(row)
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
