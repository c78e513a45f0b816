"""The microbenchmarks' route-agreement checks, run without timing, so
that a change to the routes they call shows here and not only when a
script is next run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

MICROBENCH = Path(__file__).resolve().parent.parent / "microbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"microbench_{name}", MICROBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_product_cut_routes_agree():
    _load("product_cut").check()


def test_moments_routes_agree():
    # Orders 9 and 32 only: orders 64-128 run in CI through the script's
    # --check, under the lowest int-to-str digit limit.
    bench = _load("moments_route")
    bench.check([n for n in bench.ORDERS if n <= 32])


def test_series_routes_agree():
    # Orders 12 and 32 only: order 64 runs in CI through the script's
    # --check, under the lowest int-to-str digit limit.
    bench = _load("series_route")
    bench.check([case for case in bench.CASES if case[3] <= 32])


def test_parse_routes_agree():
    # Orders 6 and 12 only: order 32 runs in CI through the script's
    # --check, under the lowest int-to-str digit limit.
    bench = _load("parse_route")
    bench.check([case for case in bench.CASES if case[2] <= 12])
