from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from erarray.scalars import PolyZ, Scalar, Z
from erarray.sequences import (
    NAMED_PAIRS,
    bell_poly,
    eulerian,
    eulerian_poly,
    eulerian_triangle,
    named_pair,
    stirling2,
    stirling_triangle,
)
from erarray.series import Series

from oracles import pair_thm2_by_quotient

STIRLING_ROWS = [
    (1,),
    (0, 1),
    (0, 1, 1),
    (0, 1, 3, 1),
    (0, 1, 7, 6, 1),
    (0, 1, 15, 25, 10, 1),
]

EULERIAN_ROWS = [
    (1,),
    (0, 1),
    (0, 1, 1),
    (0, 1, 4, 1),
    (0, 1, 11, 11, 1),
    (0, 1, 26, 66, 26, 1),
]


class TestStirling:
    @pytest.mark.parametrize("n, k, value", [(4, 2, 7), (5, 3, 25), (7, 7, 1), (0, 0, 1)])
    def test_values(self, n, k, value):
        assert stirling2(n, k) == value

    def test_triangle(self):
        assert stirling_triangle(5).rows == tuple(STIRLING_ROWS)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling2(3, 4)
        with pytest.raises(ValueError):
            stirling2(3, -1)

    def test_row_sums_are_bell_numbers(self):
        from oracles import bell_numbers

        bells = bell_numbers(11)
        for n in range(11):
            assert sum(stirling2(n, k) for k in range(n + 1)) == bells[n]


class TestEulerian:
    @pytest.mark.parametrize("n, k, value", [(4, 2, 11), (5, 3, 66), (6, 1, 1), (0, 0, 1)])
    def test_values(self, n, k, value):
        assert eulerian(n, k) == value

    def test_triangle(self):
        assert eulerian_triangle(5).rows == tuple(EULERIAN_ROWS)

    def test_row_sums_are_factorials(self):
        for n in range(11):
            assert sum(eulerian(n, k) for k in range(n + 1)) == factorial(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eulerian(2, 3)


class TestPolynomials:
    def test_bell_poly_values(self):
        assert bell_poly(3) == PolyZ((0, 1, 3, 1))
        assert bell_poly(4) == PolyZ((0, 1, 7, 6, 1))
        assert bell_poly(0) == PolyZ((1,))

    def test_eulerian_poly_values(self):
        assert eulerian_poly(3) == PolyZ((0, 1, 4, 1))
        assert eulerian_poly(4) == PolyZ((0, 1, 11, 11, 1))
        assert eulerian_poly(3).evaluate(1) == 6

    def test_bell_poly_matches_egf(self):
        n = 8
        g, _ = named_pair("thm1", n)
        for k in range(n + 1):
            assert Scalar(bell_poly(k)) == g.coeffs[k] * factorial(k)

    def test_eulerian_poly_matches_egf(self):
        n = 8
        g, _ = named_pair("thm2", n)
        for k in range(n + 1):
            assert Scalar(eulerian_poly(k)) == g.coeffs[k] * factorial(k)


class TestNamedPairs:
    def test_thm1_series_prefix(self):
        g, f = named_pair("thm1", 3)
        assert g.coeffs[0] == Scalar(1)
        assert g.coeffs[1] == Z
        assert g.coeffs[2] == (Z * Z + Z) / 2
        assert g.coeffs[3] == (Z**3 + 3 * Z**2 + Z) / 6
        assert f.coeffs == (
            Scalar(0), Scalar(1), Scalar(Fraction(1, 2)), Scalar(Fraction(1, 6))
        )

    def test_binomial(self):
        g, f = named_pair("binomial", 4)
        assert g == Series.x(4).exp()
        assert f == Series.x(4)

    def test_thm2_z1_alias(self):
        assert named_pair("thm2_z1", 6) == named_pair("laguerre", 6)

    @pytest.mark.parametrize("order", [*range(1, 17), 24, 32])
    def test_thm2_matches_quotient(self, order):
        assert named_pair("thm2", order) == pair_thm2_by_quotient(order)

    def test_every_pair_needs_order_one(self):
        for name in NAMED_PAIRS:
            with pytest.raises(ValueError, match=r"^series of x needs order >= 1$"):
                named_pair(name, 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown named pair"):
            named_pair("nope", 4)
