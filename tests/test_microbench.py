"""The microbenchmarks' route-agreement checks, run without timing, so
that a change to the routes they call shows here and not only when a
script is next run.  Each check runs under the interpreter's lowest
int-to-str digit limit, so a route that turns a large int into a string
fails here too."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

MICROBENCH = Path(__file__).resolve().parent.parent / "microbench"


@pytest.fixture(autouse=True)
def lowest_digit_limit():
    """Set the int-to-str digit limit to its lowest value, 640, for one
    test and restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("the interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"microbench_{name}", MICROBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_product_cut_routes_agree():
    _load("product_cut").check()


def test_moments_routes_agree():
    # Orders 9 and 32 only: orders 64-128 run in CI through the script's
    # --check.
    bench = _load("moments_route")
    bench.check([n for n in bench.ORDERS if n <= 32])


def test_walk_routes_agree():
    # Orders 9 and 32, depths 9 and 25, the integer sequences at order 64
    # and the raw sequences at nmax 8 only: the larger cases run in CI
    # through the script's --check.
    bench = _load("walk_route")
    bench.check([n for n in bench.ORDERS if n <= 32], [n for n in bench.DEPTHS if n <= 25],
                [n for n in bench.INTEGER_ORDERS if n <= 64], [n for n in bench.RAW_NMAX if n <= 8])


def test_division_routes_agree():
    # Orders 9 and 32 only: orders 64-128 run in CI through the script's
    # --check.
    bench = _load("division_route")
    bench.check([n for n in bench.ORDERS if n <= 32])


def test_series_routes_agree():
    # Orders 12 and 32 only: order 64 runs in CI through the script's
    # --check.
    bench = _load("series_route")
    bench.check([case for case in bench.CASES if case[3] <= 32])


def test_parse_routes_agree():
    _load("parse_route").check()


def test_text_routes_agree():
    # Orders 32 and 64 only: orders 96-128 run in CI through the script's
    # --check.
    bench = _load("text_route")
    bench.check([n for n in bench.ORDERS if n <= 64])
