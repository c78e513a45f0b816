"""Microbenchmark of two routes through ``Scalar`` division: the library's,
which tries an exact quotient of two polynomials first
(``scalars._exact_quotient``) and takes the gcd route only when that
fails, and the gcd route alone, which cross-cancels numerator and divisor
(kept as ``divide_by_gcd`` in tests/oracles.py), on the same pairs.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/division_route.py > cases.json
    PYTHONPATH=src python -X int_max_str_digits=640 microbench/division_route.py --check

The pairs are the divisions that ``orthopoly._walk`` makes: on the moments
of the 42 jobs of the benchmark's ``hankel`` workload at seed 1 (count 2n),
and on those of the paper's two theorems (thm1: alpha_n = z + n,
beta_n = n z; thm2: alpha_n = (n+1) z + n, beta_n = n^2 z) at depth and
count N for N in ORDERS.  Two more cases bound the cost of a failed
attempt, on fixed-seed pairs x / y of integer polynomials with deg x =
2 deg y = 2 SIZE: ``inexact first step``, where lc(y) = 2 does not divide
the leading coefficient of x, so the attempt gives up at once, and
``inexact low remainder``, where y is monic and x = y q + 1, so every
step is integral and only the remainder left below deg y fails.
``check`` asserts that both routes give the same Scalar on every pair,
and that ``PolyZ.exact_div``, which runs on ``_exact_quotient`` too,
gives what the quotient of pseudo-division gave (kept as
``exact_div_by_divmod`` in tests/oracles.py) on the exact divisions of
``_clear_denominators`` in the 42 jobs (through ``moments_from_jacobi``
and ``_walk``) and on those of ``sequences._over_one_minus_z`` in the
thm2 pair at each order.  ``--check`` runs it alone, and ``main`` runs
it before timing.  Under the interpreter's lowest int-to-str digit limit
the check also shows that no route turns a large int into a string.  A case's time is the best
of five passes over all its pairs, in milliseconds, the two routes taking
turns.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

import erarray
from erarray import scalars
from erarray.orthopoly import _walk, moments_from_jacobi
from erarray.scalars import PolyZ, Scalar
from erarray.sequences import named_pair

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "microbench"))
sys.path.insert(0, str(ROOT / "tests"))
from oracles import divide_by_gcd, exact_div_by_divmod  # noqa: E402
from walk_route import THEOREMS  # noqa: E402
from workloads import Hankel  # noqa: E402

ORDERS = (9, 32, 64, 96, 128)
#: deg y for the inexact pairs, whose x has degree 2 SIZE.
SIZE = 8
ROUTES = {"exact first": lambda x, y: x / y, "gcd": divide_by_gcd}


def _calls(cls, name: str, run) -> list:
    """The (x, y) pairs of every call of the method ``cls.name`` that
    ``run()`` makes."""
    pairs = []
    real = getattr(cls, name)

    def recorded(x, y):
        pairs.append((x, y))
        return real(x, y)

    setattr(cls, name, recorded)
    try:
        run()
    finally:
        setattr(cls, name, real)
    return pairs


def walk_divisions(terms) -> list:
    """The (x, y) pairs of every ``/`` that ``_walk`` makes on ``terms``."""
    return _calls(Scalar, "__truediv__", lambda: list(_walk(terms)))


def exact_divisions(orders=ORDERS) -> list:
    """(case, order, pairs) of the ``PolyZ.exact_div`` calls that the
    ``hankel`` jobs make, moments and walk, and that the thm2 pair makes at
    each order."""
    jobs = Hankel().make_jobs(erarray, 1)
    out = [("hankel seed 1, 42 jobs", None, _calls(PolyZ, "exact_div", lambda: [
        list(_walk(moments_from_jacobi(params, 2 * n).terms)) for n, params in jobs]))]
    out += [("thm2 pair", n, _calls(PolyZ, "exact_div", lambda n=n: named_pair("thm2", n)))
            for n in orders]
    return out


def inexact_pairs(low: bool, count: int = 20, seed: int = 1) -> list:
    """``count`` pairs x / y of integer polynomials with deg y = SIZE and
    x = y q + r, q monic of degree SIZE: with ``low``, y monic and r = 1,
    so x is primitive and monic; otherwise y primitive (its constant
    coefficient odd) with lc(y) = 2, and r = z^(2 SIZE), so lc(x) = 3."""
    rng = random.Random(f"division_route/{seed}/{low}")
    pairs = []
    for _ in range(count):
        y = ([rng.randint(-9, 9) for _ in range(SIZE)] + [1] if low else
             [2 * rng.randint(-4, 4) + 1] + [rng.randint(-9, 9) for _ in range(SIZE - 1)] + [2])
        q = [rng.randint(-9, 9) for _ in range(SIZE)] + [1]
        x = PolyZ(y) * PolyZ(q) + (1 if low else PolyZ([0] * 2 * SIZE + [1]))
        pairs.append((Scalar(x), Scalar(PolyZ(y))))
    return pairs


def cases(orders=ORDERS) -> list:
    """(case, order, pairs) for the ``hankel`` jobs, the theorems at each
    order and the two kinds of inexact pair."""
    moments = [moments_from_jacobi(params, 2 * n).terms
               for n, params in Hankel().make_jobs(erarray, 1)]
    out = [("hankel seed 1, 42 jobs", None, [p for terms in moments for p in walk_divisions(terms)])]
    out += [(name, n, walk_divisions(moments_from_jacobi(params(n), n).terms))
            for name, params in THEOREMS.items() for n in orders]
    out += [("inexact first step", SIZE, inexact_pairs(False)),
            ("inexact low remainder", SIZE, inexact_pairs(True))]
    return out


def check(orders=ORDERS) -> None:
    """Assert that both routes give the same Scalar on every pair, that
    every division of a theorem's walk by a polynomial that is not a
    constant is an exact quotient, that no inexact pair is, and that
    ``PolyZ.exact_div`` equals ``exact_div_by_divmod`` on the exact
    divisions of the ``hankel`` jobs and the thm2 pair."""
    for name, n, pairs in cases(orders):
        for i, (x, y) in enumerate(pairs):
            if x / y != divide_by_gcd(x, y):
                raise AssertionError(f"routes disagree on {name} at order {n}, division {i}")
            if (name in THEOREMS or name.startswith("inexact")) and y.num.degree > 0:
                exact = scalars._exact_quotient(x.num, y.num) is not None
                if exact != (name in THEOREMS):
                    raise AssertionError(f"{name} at order {n}: exact quotient is {exact} "
                                         f"on division {i}")
    for name, n, pairs in exact_divisions(orders):
        if not pairs:
            raise AssertionError(f"{name} at order {n} makes no exact division")
        for i, (a, b) in enumerate(pairs):
            if a.exact_div(b) != exact_div_by_divmod(a, b):
                raise AssertionError(f"exact division routes disagree on {name} at order {n}, "
                                     f"division {i}")


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
        print("division_route: both routes agree on every case, and so do both exact divisions")
        return 0
    rows = []
    for name, n, pairs in cases():
        ms = _best_ms({route: (lambda f=f: [f(x, y) for x, y in pairs])
                       for route, f in ROUTES.items()})
        rows.append({"case": name, "order": n, "divisions": len(pairs),
                     **{f"{route.replace(' ', '_')}_ms": round(t, 3) for route, t in ms.items()},
                     "speedup": round(ms["gcd"] / ms["exact first"], 2)})
    json.dump({"python": platform.python_version(), "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
