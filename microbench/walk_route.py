"""Microbenchmark of two routes through the Chebyshev tableau of
``erarray.orthopoly._walk``, which ``hankel_transform`` and
``jacobi_from_moments`` share: the library's rows of integer coefficient
vectors over one integer and one polynomial denominator per row, each
entry one fused integer kernel, and the tableau with one ``scalars.dot``
of three Q(z) pairs per entry (kept as ``walk_by_dot_tableau`` in
tests/oracles.py), on the same moments.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/walk_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/walk_route.py --check

The moments are those of the paper's two theorems (thm1:
alpha_n = z + n, beta_n = n z; thm2: alpha_n = (n+1) z + n,
beta_n = n^2 z) at depth and count N for N in ORDERS, where every row is
polynomial and both routes take the same steps; those of fixed-seed
rational Jacobi data (alpha = c + d z, beta = (c + d z)/(q + z),
q in {1, 2, 3}) of depth N and count N - 1 for N in DEPTHS; and those of
the 42 jobs of the benchmark's ``hankel`` workload at seed 1 (count 2n).
``check`` asserts that both routes yield the same (s, alpha, beta)
triples on every case and on every job at every count up to its depth;
``--check`` runs it alone, and ``main`` runs it before timing.  Under the
interpreter's lowest int-to-str digit limit the check also shows that
neither route turns a large int into a string.  A case's time is the best
of five single walks, in milliseconds, the two routes taking turns; the
``hankel`` row is the best of five passes over all 42 jobs.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

import erarray
from erarray.orthopoly import JacobiParams, _walk, moments_from_jacobi
from erarray.scalars import Z, Scalar

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import walk_by_dot_tableau  # noqa: E402
from workloads import Hankel  # noqa: E402

ORDERS = (9, 32, 64, 96, 128)
DEPTHS = (9, 25, 41, 65)
THEOREMS = {
    "thm1": lambda n: JacobiParams(alpha=tuple(Z + k for k in range(n)),
                                   beta=tuple(Z * k for k in range(1, n))),
    "thm2": lambda n: JacobiParams(alpha=tuple(Z * (k + 1) + k for k in range(n)),
                                   beta=tuple(Z * (k * k) for k in range(1, n))),
}
ROUTES = {"rows": lambda terms: list(_walk(terms)),
          "dot": lambda terms: list(walk_by_dot_tableau(terms))}


def rational_params(depth: int, seed: int = 1) -> JacobiParams:
    """Jacobi data of the given depth with alpha = c + d z and
    beta = (c + d z)/(q + z), q in {1, 2, 3}, drawn from ``seed``."""
    rng = random.Random(f"walk_route/{seed}")

    def linear():
        while True:
            c, d = rng.randint(-3, 3), rng.randint(-2, 2)
            if c or d:
                return Scalar(c) + Z * d

    alpha = tuple(linear() for _ in range(depth))
    beta = tuple(linear() / (Z + rng.randint(1, 3)) for _ in range(depth - 1))
    return JacobiParams(alpha, beta)


def cases(orders=ORDERS, depths=DEPTHS) -> list:
    """(case, order, moments) for thm1 and thm2 at each order and for the
    rational data at each depth."""
    out = [(name, n, moments_from_jacobi(params(n), n).terms)
           for name, params in THEOREMS.items() for n in orders]
    out += [("rational", n, moments_from_jacobi(rational_params(n), n - 1).terms)
            for n in depths]
    return out


def hankel_jobs() -> list:
    """(n, params) for the 42 jobs of the ``hankel`` workload at seed 1."""
    return Hankel().make_jobs(erarray, 1)


def _agree(terms) -> bool:
    return list(_walk(terms)) == list(walk_by_dot_tableau(terms))


def check(orders=ORDERS, depths=DEPTHS, jobs=True) -> None:
    """Assert that both routes yield the same triples on every case and,
    with ``jobs``, on the moments of every ``hankel`` job at every count."""
    for name, n, terms in cases(orders, depths):
        if not _agree(terms):
            raise AssertionError(f"routes disagree on {name} at order {n}")
    for i, (_, params) in enumerate(hankel_jobs() if jobs else ()):
        for count in range(params.depth + 1):
            if not _agree(moments_from_jacobi(params, count).terms):
                raise AssertionError(f"routes disagree on hankel job {i} at count {count}")


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


def _row(case: str, order, runs: dict) -> dict:
    ms = _best_ms(runs)
    return {"case": case, "order": order,
            **{f"{route}_ms": round(t, 3) for route, t in ms.items()},
            "speedup": round(ms["dot"] / ms["rows"], 2)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check()
    if "--check" in argv:
        print("walk_route: both routes agree on every case")
        return 0
    rows = [_row(name, n, {route: (lambda f=f: f(terms)) for route, f in ROUTES.items()})
            for name, n, terms in cases()]
    moments = [moments_from_jacobi(p, 2 * n).terms for n, p in hankel_jobs()]
    rows.append(_row("hankel seed 1, 42 jobs", None, {
        route: (lambda f=f: [f(terms) for terms in moments]) for route, f in ROUTES.items()}))
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
