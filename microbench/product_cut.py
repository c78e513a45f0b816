"""Microbenchmark of the two integer-polynomial product routes in
``erarray.scalars``: the classical double loop (``_schoolbook``) and
Kronecker substitution (``_kronecker``), on the same inputs, on each side
of the cut ``_SCHOOLBOOK_MAX`` at which ``_multiply`` switches between them.

Usage, from the root of a checkout:

    PYTHONPATH=src python microbench/product_cut.py > cases.json

Each case is a pair of random integer polynomials (seeded) of the given
lengths whose coefficients have the given bit length.  ``check`` asserts
that the routes agree on every case, and ``main`` runs it before timing.
A route's time is the best of five ``timeit`` repeats, each of the loop
count ``autorange`` picks, in microseconds per product.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import timeit

from erarray import scalars

#: (shorter length, longer length, coefficient bits): the shapes of the
#: five products quoted when the cut was chosen, then a grid across it.
CASES = ((2, 10, 16), (4, 4, 12), (6, 6, 20), (8, 8, 30), (2, 64, 200)) + tuple(
    (short, short if square else 20, bits)
    for bits in (16, 200) for square in (True, False) for short in (4, 5, 6, 8))


def _poly(rng: random.Random, length: int, bits: int) -> tuple:
    top = 1 << bits
    return tuple(rng.choice((-1, 1)) * rng.randrange(top >> 1, top) for _ in range(length))


def _inputs():
    """(case, a, b) for every case of CASES, on one seeded generator."""
    rng = random.Random(13)
    for short, long, bits in CASES:
        yield (short, long, bits), _poly(rng, short, bits), _poly(rng, long, bits)


def check() -> None:
    """Assert that the cases lie on both sides of the cut, and that both
    routes, and ``_multiply``, give the same product on every case."""
    cut = scalars._SCHOOLBOOK_MAX
    if not min(c[0] for c in CASES) <= cut < max(c[0] for c in CASES):
        raise AssertionError(f"the cases do not straddle the cut {cut}")
    for (short, long, bits), a, b in _inputs():
        product = scalars._schoolbook(a, b)
        if product != scalars._kronecker(a, b) or product != scalars._multiply(a, b):
            raise AssertionError(f"routes disagree on {short}x{long}, {bits} bits")


def _best_us(f, a, b) -> float:
    timer = timeit.Timer(lambda: f(a, b))
    loops, _ = timer.autorange()
    return min(timer.repeat(5, loops)) / loops * 1e6


def main() -> int:
    check()
    rows = []
    for (short, long, bits), a, b in _inputs():
        kronecker = _best_us(scalars._kronecker, a, b)
        schoolbook = _best_us(scalars._schoolbook, a, b)
        rows.append({"shorter": short, "longer": long, "bits": bits,
                     "kronecker_us": round(kronecker, 2),
                     "schoolbook_us": round(schoolbook, 2),
                     "faster": "schoolbook" if schoolbook < kronecker else "kronecker",
                     "chosen": "schoolbook" if short <= scalars._SCHOOLBOOK_MAX
                     else "kronecker"})
    json.dump({"cut": scalars._SCHOOLBOOK_MAX, "python": platform.python_version(),
               "cases": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
