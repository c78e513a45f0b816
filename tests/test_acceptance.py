"""Acceptance suite: every check is an exact identity at truncation order 12.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch them
stream); a FAIL line is always followed by the assertion failure itself.
The paper's identities are written once, in ``erarray.checks``:
``test_identity_suite`` asserts every row of each target, and criteria 03-10
name the rows that carry them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest

from erarray import checks
from erarray.checks import SUITES
from erarray.hankel import binomial_transform, hankel_from_betas, hankel_transform
from erarray.orthopoly import JacobiParams, jacobi_from_moments, moments_from_jacobi
from erarray.riordan import (
    er_build,
    er_inverse,
    er_mul,
    er_power,
    identity,
    production_from_pair,
)
from erarray.scalars import ONE, ZERO, Scalar, Z
from erarray.sequences import bell_poly, eulerian, eulerian_poly, named_pair
from erarray.series import Series

from oracles import random_pair

ORDER = 12


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {description}")
    assert ok, f"criterion {criterion}: {description}"


@pytest.fixture(scope="module")
def suite():
    """Every (name, ok, detail) row of erarray.checks at ORDER, by target."""
    return {target: list(rows(ORDER)) for target, rows in SUITES.items()}


def holds(suite, *prefixes: str) -> bool:
    """Each prefix starts the name of some suite row, and every such row holds."""
    rows = [(name, ok) for target in suite.values() for name, ok, _ in target]
    return all(any(name.startswith(p) for name, _ in rows) for p in prefixes) \
        and all(ok for name, ok in rows if name.startswith(prefixes))


@pytest.mark.parametrize("target", SUITES)
def test_identity_suite(suite, target):
    for name, ok, detail in suite[target]:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        assert ok, f"{name}\n{detail}"


def test_criterion_01_stirling_array():
    displayed = [
        (1,),
        (0, 1),
        (0, 1, 1),
        (0, 1, 3, 1),
        (0, 1, 7, 6, 1),
        (0, 1, 15, 25, 10, 1),
    ]
    a = er_build(*named_pair("stirling2", 5))
    ok = all(
        a.entries[n][: n + 1] == tuple(Scalar(v) for v in row)
        for n, row in enumerate(displayed)
    )
    report(1, "er_build([1, e^x-1]) reproduces the Stirling triangle rows 0..5", ok)


def test_criterion_02_eulerian_triangle():
    displayed = [
        (1,),
        (0, 1),
        (0, 1, 1),
        (0, 1, 4, 1),
        (0, 1, 11, 11, 1),
        (0, 1, 26, 66, 26, 1),
    ]
    ok = all(
        tuple(eulerian(n, k) for k in range(n + 1)) == row
        for n, row in enumerate(displayed)
    )
    ok = ok and all(
        sum(eulerian(n, k) for k in range(n + 1)) == factorial(n)
        for n in range(11)
    )
    report(2, "eulerian(n,k) matches the displayed triangle and row sums are n!", ok)


def test_criterion_03_thm1_production(suite):
    report(3, "thm1 production matrix is tridiagonal (n z, z+n, 1); methods agree",
           holds(suite, "thm1: production matrix", "thm1: production methods"))


def test_criterion_04_thm2_production(suite):
    report(4, "thm2 production matrix is tridiagonal (n^2 z, (n+1)z+n, 1); methods agree",
           holds(suite, "thm2: production matrix", "thm2: production methods"))


def test_criterion_05_moments(suite):
    ok = holds(suite, "thm1: first column", "thm2: first column",
               "thm1: moments of the extracted", "thm2: moments of the extracted")
    report(5, "first columns and Jacobi moments are e_n(z) and EU_n(z)", ok)


def test_criterion_06_hankel_bell_polynomials(suite):
    terms = [Scalar(bell_poly(n)) for n in range(9)]
    ok = holds(suite, "thm1: Hankel transform of e_n(z)")
    ok = ok and str(hankel_transform(terms, 4)[4]) == "288*z^10"
    report(6, "Hankel transform of e_n(z) equals z^C(n+1,2) prod k! for n <= 6", ok)


def test_criterion_07_hankel_eulerian_polynomials(suite):
    terms = [Scalar(eulerian_poly(n)) for n in range(7)]
    ok = holds(suite, "thm2: Hankel transform of EU_n(z)")
    ok = ok and str(hankel_transform(terms, 3)[3]) == "144*z^6"
    report(7, "Hankel transform of EU_n(z) equals z^C(n+1,2) prod k!^2 for n <= 6", ok)


def test_criterion_08_row_sum_hankel(suite):
    report(8, "Hankel transform of thm1 row sums is (z+1)^C(n+1,2) prod k!",
           holds(suite, "thm1: Hankel transform of the row sums"))


def test_criterion_09_inverses_and_factorization(suite):
    ok = holds(suite, "thm1: inverse array", "thm2: inverse array", "thm1: factorization")
    report(9, "inverse propositions and the factorization identity hold to order 12", ok)


def failing(*targets, order: int = 6) -> list[str]:
    """Names of the failing rows of ``targets``; each must show both values.

    A failing row's detail is an ``expected:`` line and an ``actual:`` line,
    and the two values shown differ.
    """
    failed = []
    for target in targets:
        for name, ok, detail in SUITES[target](order):
            if ok:
                continue
            expected, actual = detail.split("\n")
            assert expected.startswith("expected: ") and actual.startswith("actual:   "), name
            assert expected[len("expected: "):] != actual[len("actual:   "):], name
            failed.append(name)
    return failed


def test_factorization_row_reads_the_stirling_numbers(monkeypatch):
    # One wrong S(r, j) must fail the factorization row and no other.
    real = checks.stirling2
    monkeypatch.setattr(checks, "stirling2",
                        lambda r, j: real(r, j) + ((r, j) == (5, 3)))
    assert failing("thm1") == ["thm1: factorization L(n,k) = sum_j S(n,j) C(j,k) z^(j-k)"]


@pytest.mark.parametrize("target, delta", [("thm1", ONE), ("thm2", Z - 1)])
def test_inverse_row_reads_the_last_coefficient(monkeypatch, target, delta):
    # An inverse whose f is off in its last coefficient only must fail the
    # inverse row and no other.  For thm2 the error vanishes at z = 1, where
    # the signed Laguerre row reads the same inverse.
    real = checks.er_inverse

    def off(a):
        inv = real(a)
        f = inv.f.coeffs
        return er_build(inv.g, Series(f[:-1] + (f[-1] + delta,)))

    monkeypatch.setattr(checks, "er_inverse", off)
    failed = failing(target)
    assert len(failed) == 1 and failed[0].startswith(f"{target}: inverse array is")


@pytest.mark.parametrize("target", ["thm1", "thm2"])
def test_production_row_reads_every_entry(monkeypatch, target):
    # A direct production matrix one entry off must fail the "production
    # methods agree" row and no other.
    real = checks.production_direct

    def off(a):
        rows = [list(row) for row in real(a).entries]
        rows[3][2] += 1
        return SimpleNamespace(entries=tuple(tuple(row) for row in rows))

    monkeypatch.setattr(checks, "production_direct", off)
    assert failing(target) == [f"{target}: production methods agree on rows 0..5"]


def test_integer_rows_read_every_cell(monkeypatch):
    # One expected cell off by one must fail the rows that read it and no
    # other: the (signed) Laguerre terms in the examples and at z = 1 in
    # thm2, and a displayed Charlier row.
    real = checks._laguerre
    monkeypatch.setattr(checks, "_laguerre", lambda r, k: real(r, k) + ((r, k) == (4, 2)))
    monkeypatch.setattr(checks, "CHARLIER_ROWS", checks.CHARLIER_ROWS[:3] + ((1, 8, 7, 1),))
    assert failing("thm2", "examples") == [
        "thm2: entries at z = 1 equal the Laguerre-type array (n!/k!) C(n,k)",
        "thm2: inverse entries at z = 1 are the signed Laguerre coefficients",
        "examples: [1/(1-x), x/(1-x)] has general term (n!/k!) C(n,k)",
        "examples: inverse of [1/(1-x), x/(1-x)] is the signed Laguerre array",
        "examples: [e^x, log(1/(1-x))] matches the displayed rows",
    ]


def test_integer_rows_name_the_wrong_cell(monkeypatch):
    # A failing integer table shows its rows as rows and names the cell;
    # at order 6 the Laguerre triangle has 28 cells.
    real = checks._laguerre
    monkeypatch.setattr(checks, "_laguerre", lambda r, k: real(r, k) + ((r, k) == (4, 2)))
    details = {name: detail for name, ok, detail in checks.examples(6) if not ok}
    detail = details["examples: [1/(1-x), x/(1-x)] has general term (n!/k!) C(n,k)"]
    assert detail == (
        "expected: [(1); (1, 1); (2, 4, 1); (6, 18, 9, 1); (24, 96, 73, 16, 1); "
        "(120, 600, 600, 200, 25, 1); (720, 4320, 5400, 2400, 450, 36, 1)]; "
        "first difference at (r, k) = (4, 2): 73\n"
        "actual:   [(1); (1, 1); (2, 4, 1); (6, 18, 9, 1); (24, 96, 72, 16, 1); "
        "(120, 600, 600, 200, 25, 1); (720, 4320, 5400, 2400, 450, 36, 1)]; "
        "first difference at (r, k) = (4, 2): 72")
    assert len(details) == 2
    assert all(d.endswith("first difference at (r, k) = (4, 2): 72") for d in details.values())


@pytest.mark.parametrize("entry", [Scalar(Fraction(1, 2)), Scalar(Fraction(3, 2)), Z, Z / (Z + 1)])
def test_integer_rows_refuse_a_non_integer_entry(entry):
    # Each expected value is the integer part of the entry, or z's value at
    # 0 or 1, so only reading the entry as an integer can fail the row.  The
    # reader serves the lower triangle (widths 1..order+1) and displayed rows
    # (the widths of the rows shown).
    entries = ((ONE, ZERO), (entry, ONE))
    lower = range(1, 3)
    for term in (0, 1):
        table = checks._table(lambda r, k: term if (r, k) == (1, 0) else int(r == k), lower)
        assert checks._ints(entries, lower) != table
        displayed = ((1,), (term, 1))
        assert checks._ints(entries, map(len, displayed)) != [v for row in displayed for v in row]
    assert checks._ints(entries, lower) == [1, None, 1]
    assert checks._ints(((ONE, ZERO), (Scalar(3), ONE)), lower) == [1, 3, 1]


def test_criterion_10_z1_reduction(suite):
    ok = holds(suite, "thm2: entries at z = 1", "thm2: inverse entries at z = 1")
    report(10, "thm2 entries at z = 1 reduce to the (signed) Laguerre coefficients", ok)


def test_criterion_11_example_corpus():
    n = 8
    x = Series.x(n)
    one = Series.one(n)

    # [1/(1-x), x]: entries pinned by phi = e^{tw}(1/(1-w) + t), i.e. the
    # array itself with a unit superdiagonal.
    lah = er_build(*named_pair("lah_like", n))
    p = production_from_pair(lah)
    ok = all(
        p.entries[i][j] == (
            Scalar(factorial(i) // factorial(j)) if j <= i
            else ONE if j == i + 1 else ZERO
        )
        for i in range(n) for j in range(n + 1)
    )

    # inverse of [1, x/(1+x)] is [1, x/(1-x)]; displayed block of its P
    sol = er_build(one, x / (one + x))
    sol_inv = er_inverse(sol)
    geometric_f = x / (one - x)
    ok = ok and sol_inv.entries == er_build(one, geometric_f).entries
    displayed_sol = [
        (0, 1), (0, 2, 1), (0, 2, 4, 1), (0, 0, 6, 6, 1),
        (0, 0, 0, 12, 8, 1), (0, 0, 0, 0, 20, 10),
    ]
    p_sol = production_from_pair(sol_inv)
    ok = ok and all(
        p_sol.entries[i][j] == Scalar(v)
        for i, row in enumerate(displayed_sol) for j, v in enumerate(row)
    )

    displayed_lag = [
        (1, 1), (1, 3, 1), (0, 4, 5, 1), (0, 0, 9, 7, 1),
        (0, 0, 0, 16, 9, 1), (0, 0, 0, 0, 25, 11),
    ]
    p_lag = production_from_pair(er_build(*named_pair("laguerre", n)))
    ok = ok and all(
        p_lag.entries[i][j] == Scalar(v)
        for i, row in enumerate(displayed_lag) for j, v in enumerate(row)
    )

    displayed_charlier = [
        (-1, 1), (1, -2, 1), (0, 2, -3, 1), (0, 0, 3, -4, 1),
        (0, 0, 0, 4, -5, 1), (0, 0, 0, 0, 5, -6),
    ]
    p_charlier = production_from_pair(
        er_inverse(er_build(*named_pair("charlier", n)))
    )
    ok = ok and all(
        p_charlier.entries[i][j] == Scalar(v)
        for i, row in enumerate(displayed_charlier) for j, v in enumerate(row)
    )
    report(11, "all four example production matrices match their displayed values", ok)


def test_criterion_12_oracle_equivalence():
    rng = random.Random(20260808)
    ok = True
    for _ in range(50):
        depth = 6
        params = JacobiParams(
            alpha=tuple(Scalar(rng.randint(-3, 3)) for _ in range(depth)),
            beta=tuple(Scalar(rng.randint(1, 4)) for _ in range(depth - 1)),
        )
        moments = moments_from_jacobi(params, depth)
        nmax = depth // 2
        ok = ok and hankel_transform(moments, nmax) == hankel_from_betas(params, nmax)
        recovered = jacobi_from_moments(moments)
        d = recovered.depth
        ok = ok and not recovered.finite_support
        ok = ok and recovered.params.alpha == params.alpha[:d]
        ok = ok and recovered.params.beta == params.beta[: d - 1]
    report(12, "50 random Jacobi parameter sets: Hankel product formula and round trip", ok)


def test_criterion_13_binomial_invariance():
    bell_values = [ONE]
    for n in range(10):
        bell_values.append(
            sum((Scalar(comb(n, k)) * bell_values[k] for k in range(n + 1)), ZERO)
        )
    corpus = [
        bell_values,
        [Scalar(factorial(n)) for n in range(11)],
        [Scalar(bell_poly(n).evaluate(2)) for n in range(11)],
        [Scalar(bell_poly(n).evaluate(3)) for n in range(11)],
    ]
    ok = True
    for seq in corpus:
        ok = ok and hankel_transform(seq, 5) == \
            hankel_transform(binomial_transform(seq), 5)
    report(13, "Hankel transform is invariant under the binomial transform", ok)


def test_criterion_14_group_axioms():
    n = 10
    rng = random.Random(424242)
    arrays = [er_build(*named_pair(name, n)) for name in
              ("thm1", "thm2", "laguerre", "charlier")]
    arrays += [
        er_build(*random_pair(rng, n, with_z=(i % 4 == 0))) for i in range(20)
    ]
    ident = identity(n)
    ok = all(er_mul(a, er_inverse(a)).entries == ident.entries for a in arrays)
    for i in range(0, 21, 3):
        a, b, c = arrays[i], arrays[i + 1], arrays[i + 2]
        ok = ok and er_mul(er_mul(a, b), c).entries == er_mul(a, er_mul(b, c)).entries
    binomial = er_build(*named_pair("binomial", n))
    x = Series.x(n)
    ok = ok and er_power(binomial, 3).entries == er_build((x * 3).exp(), x).entries
    report(14, "group axioms hold for named and 20 random pairs; [e^x,x]^3 = [e^{3x},x]", ok)
