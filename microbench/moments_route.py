"""Microbenchmark of two routes through the Stieltjes tableau of
``erarray.orthopoly.moments_from_jacobi``: the library's rows packed into
ints at z = 2^w, with the slot width from the norm tableau, and the
tableau with one ``scalars.dot`` per entry that it replaced (kept as
``moments_by_dot_tableau`` in tests/oracles.py), on the same Jacobi data.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/moments_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/moments_route.py --check

The data is the Jacobi data of the paper's two theorems (thm1:
alpha_n = z + n, beta_n = n z; thm2: alpha_n = (n+1) z + n,
beta_n = n^2 z) at depth and count N for N in ORDERS, and the 42 jobs of
the benchmark's ``hankel`` workload at seed 1 (moments at count 2n).
``check`` asserts that both routes give equal moments on every theorem
case and on every job at every count up to its depth; ``--check`` runs it
alone, and ``main`` runs it before timing.  Under the interpreter's lowest
int-to-str digit limit the check also shows that neither route turns a
large int into a string.  A theorem case's time is the best of five
single calls, in milliseconds; the ``hankel`` row is the best of five
passes over all 42 jobs.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import erarray
from erarray.orthopoly import JacobiParams, moments_from_jacobi
from erarray.scalars import Z

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import moments_by_dot_tableau  # noqa: E402
from workloads import Hankel  # noqa: E402

ORDERS = (9, 32, 64, 96, 128)
THEOREMS = {
    "thm1": lambda n: JacobiParams(alpha=tuple(Z + k for k in range(n)),
                                   beta=tuple(Z * k for k in range(1, n))),
    "thm2": lambda n: JacobiParams(alpha=tuple(Z * (k + 1) + k for k in range(n)),
                                   beta=tuple(Z * (k * k) for k in range(1, n))),
}
ROUTES = {"packed": moments_from_jacobi, "dot": moments_by_dot_tableau}


def hankel_jobs() -> list:
    """(n, params) for the 42 jobs of the ``hankel`` workload at seed 1."""
    return Hankel().make_jobs(erarray, 1)


def check(orders=ORDERS, jobs=True) -> None:
    """Assert that both routes give equal moments on thm1 and thm2 at each
    order and, with ``jobs``, on every ``hankel`` job at every count."""
    for name, params in THEOREMS.items():
        for n in orders:
            if moments_from_jacobi(params(n), n) != moments_by_dot_tableau(params(n), n):
                raise AssertionError(f"routes disagree on {name} at order {n}")
    for i, (_, params) in enumerate(hankel_jobs() if jobs else ()):
        for count in range(params.depth + 1):
            if moments_from_jacobi(params, count) != moments_by_dot_tableau(params, count):
                raise AssertionError(f"routes disagree on hankel job {i} at count {count}")


def _best_ms(run) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _row(case: str, order, runs: dict) -> dict:
    ms = {route: _best_ms(run) for route, run in runs.items()}
    return {"case": case, "order": order,
            **{f"{route}_ms": round(t, 3) for route, t in ms.items()},
            "speedup": round(ms["dot"] / ms["packed"], 2)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check()
    if "--check" in argv:
        print("moments_route: both routes agree on every case")
        return 0
    rows = []
    for name, params in THEOREMS.items():
        for n in ORDERS:
            p = params(n)
            rows.append(_row(name, n, {route: (lambda f=f: f(p, n))
                                       for route, f in ROUTES.items()}))
    jobs = hankel_jobs()
    rows.append(_row("hankel seed 1, 42 jobs", None, {
        route: (lambda f=f: [f(p, 2 * n) for n, p in jobs]) for route, f in ROUTES.items()}))
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
