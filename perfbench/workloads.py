"""Workloads of the erarray benchmark: job generators, timed jobs and gates.

Each workload turns a seed into a fixed job list (``make_jobs``), runs one
job as the timed unit (``run``), and afterwards checks the job's output by a
route that does not repeat the timed call (``check``).  Every function takes
the imported ``erarray`` package as ``E`` and looks library functions up on
it at call time, so the benchmark's tracer sees every call.

Why each workload exists, which layer it stresses and which it bypasses, is
in ``README.md`` next to this file; each workload's ``params`` holds its
generator parameters, which every result file records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction

# -- shared helpers ------------------------------------------------------


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _rows(entries):
    return [tuple(str(e) for e in row) for row in entries]


def _scalar_size(s) -> tuple[int, int]:
    """(z-degree, largest numerator or denominator bit length) of a Scalar."""
    zdeg = max(s.num.degree, s.den.degree, 0)
    bits = 0
    for c in s.num.coeffs + s.den.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return zdeg, bits


def problem_size(scalars) -> tuple[int, int]:
    """Largest z-degree and coefficient bit length over some Scalars."""
    zdeg = bits = 0
    for s in scalars:
        d, b = _scalar_size(s)
        zdeg, bits = max(zdeg, d), max(bits, b)
    return zdeg, bits


def _fractions(entries, size: int):
    """Square Fraction matrix of a lower-triangular Scalar matrix."""
    return [[entries[r][k].as_fraction() for k in range(size)] for r in range(size)]


def _matmul(a, b):
    size = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0))
             for j in range(size)] for i in range(size)]


# -- verify: the paper's identity suite ----------------------------------


class Verify:
    """``erarray verify`` on thm1, thm2 and examples at one fixed order."""

    name = "verify"
    ORDER = 9
    TARGETS = ("thm1", "thm2", "examples")
    params = {"order": ORDER, "targets": list(TARGETS), "seeded": False}

    def make_jobs(self, E, seed: int) -> list:
        return list(self.TARGETS)

    def spec(self, job) -> str:
        return f"verify {job} --order {self.ORDER}"

    def run(self, E, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = E.cli.main(["verify", job, "--order", str(self.ORDER)])
        return rc, buf.getvalue()

    def digest(self, out) -> str:
        return _sha(out)

    def check(self, E, job, out) -> tuple[int, int]:
        """(identities checked, identities failed); a run that exits non-zero
        without a FAIL line, or reports no identity at all, is one failure."""
        rc, text = out
        lines = text.splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS "))
        failed = sum(1 for line in lines if line.startswith("FAIL "))
        if failed == 0 and (rc != 0 or passed == 0):
            return passed + 1, 1
        return passed + failed, failed

    def sizes(self, E, jobs, outs) -> tuple[int, int]:
        """Problem size of the suite's two theorem arrays and their inverses."""
        scalars = []
        for name in ("thm1", "thm2"):
            a = E.er_build(*E.named_pair(name, self.ORDER))
            for arr in (a, E.er_inverse(a)):
                scalars += [e for row in arr.entries for e in row]
        return problem_size(scalars)


# -- triangles: OEIS-style number-triangle jobs --------------------------

# Every template lies in the ring of Hurwitz series (integer e.g.f.
# coefficients) for integer parameters, and every g(0) and f'(0) is 1, so
# each pair is valid and its inverse has integer entries, as a b-file needs.
G_TEMPLATES = (
    "exp({a}*x)",
    "(1-{a}*x)^(-{k})",
    "1+{b}*log(1+{a}*x)",
    "exp({a}*x)/(1-{b}*x)",
    "exp({b}*(exp(x)-1))",
    "1/(1+{a}*x+{b}*x^2)",
)
F_TEMPLATES = (
    "(exp({a}*x)-1)/{a}",
    "log(1+{a}*x)/{a}",
    "x/(1-{a}*x)",
    "x*exp({a}*x)",
    "x+{b}*x^2/(1-{a}*x)",
    "log(1+{a}*(exp(x)-1))/{a}",
    "x/(1+{a}*x+{b}*x^2)",
)
# Parameter magnitudes are fixed and only their signs are drawn: magnitude
# sets coefficient growth, so a drawn magnitude would spread job cost between
# seeds.  a = 1 is avoided: log(1+1*(exp(x)-1))/1 is just x.
A_VALUES = (-2, 2)
B_VALUES = (-1, 1)


def _lit(p: int) -> str:
    return str(p) if p > 0 else f"({p})"


class Triangles:
    """Parse, build, multiply, invert and produce z-free arrays.

    Each slot of the order list below gets every g template i once, paired
    with f template (i + slot) mod 7, so slots 0..6 hold every (g, f) pair
    exactly once; B rotates the same way, offset by three.  Orders 11 and 12
    fill two slots each, so that the median job sits mid-way through the
    order-10 jobs and the 90th percentile mid-way through the order-12 jobs,
    not on a gap between two orders' costs.  The seed draws the parameter
    signs, the exponent k and the job order.
    """

    name = "triangles"
    ORDERS = (6, 7, 8, 9, 10, 11, 11, 12, 12)
    params = {
        "orders": list(ORDERS),
        "jobs": len(ORDERS) * len(G_TEMPLATES),
        "g_templates": list(G_TEMPLATES),
        "f_templates": list(F_TEMPLATES),
        "a_values": list(A_VALUES),
        "b_values": list(B_VALUES),
        "exponent_k": [1, 2],
    }

    def make_jobs(self, E, seed: int) -> list:
        rng = random.Random(f"triangles/{seed}")

        def fill(template):
            return template.format(
                a=_lit(rng.choice(A_VALUES)), b=_lit(rng.choice(B_VALUES)),
                k=rng.choice((1, 2)))

        ng, nf = len(G_TEMPLATES), len(F_TEMPLATES)
        jobs = [(n, fill(G_TEMPLATES[i]), fill(F_TEMPLATES[(i + slot) % nf]),
                 fill(G_TEMPLATES[(i + 3) % ng]), fill(F_TEMPLATES[(i + slot + 3) % nf]))
                for slot, n in enumerate(self.ORDERS) for i in range(ng)]
        rng.shuffle(jobs)
        return jobs

    def spec(self, job) -> str:
        return repr(job)

    def run(self, E, job):
        n, g1, f1, g2, f2 = job
        a = E.er_build(E.parse_series(g1, n), E.parse_series(f1, n))
        b = E.er_build(E.parse_series(g2, n), E.parse_series(f2, n))
        ab = E.er_mul(a, b)
        inv = E.er_inverse(a)
        prod = E.production_from_pair(a)
        bfile = E.formats.triangle_to_bfile(inv.entries)
        return {"a": a, "b": b, "ab": ab, "inv": inv, "prod": prod, "bfile": bfile}

    def digest(self, out) -> str:
        return _sha([_rows(out["ab"].entries), _rows(out["inv"].entries),
                     _rows(out["prod"].entries), out["bfile"]])

    def check(self, E, job, out) -> tuple[int, int]:
        """A A^-1 = I and A B as plain Fraction matrix products, the pair
        production route against the direct one, and the b-file read back."""
        n = job[0]
        size = n + 1
        a = _fractions(out["a"].entries, size)
        inv = _fractions(out["inv"].entries, size)
        ident = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        ok = _matmul(a, inv) == ident
        ok = ok and _matmul(a, _fractions(out["b"].entries, size)) == _fractions(
            out["ab"].entries, size)
        direct = E.production_direct(out["a"])
        ok = ok and out["prod"].entries[:n] == direct.entries[:n]
        cells = {}
        for line in out["bfile"].splitlines():
            r, k, v = (int(t) for t in line.split())
            cells[(r, k)] = Fraction(v)
        lower = {(r, k): inv[r][k] for r in range(size) for k in range(r + 1)}
        ok = ok and cells == lower
        return 1, 0 if ok else 1

    def sizes(self, E, jobs, outs) -> tuple[int, int]:
        return problem_size(
            e for out in outs for key in ("ab", "inv", "prod")
            for row in out[key].entries for e in row)


# -- hankel: moments, Hankel transform and recovery ----------------------


class Hankel:
    """Moments from Jacobi data, JSON round trip, Hankel transform, recovery.

    Each of the two blocks of 21 jobs holds four polynomial jobs at each n
    in 3..6 and five rational ones (one at n = 3, four at n = 4), so the
    median job is a polynomial one at n = 5 and the 90th percentile lands in
    the middle of the rational n = 4 jobs.  Every alpha and beta has
    z-degree exactly 1, and a rational job's denominators alternate between
    1 + z and 2 + z (which comes first is drawn) under numerators that never
    cancel, so job cost varies little between seeds.
    """

    name = "hankel"
    POLY_NS = (3, 4, 5, 6)
    POLY_PER_N = 4
    RATIONAL_NS = (3, 4, 4, 4, 4)
    BLOCKS = 2
    params = {
        "jobs": BLOCKS * (len(POLY_NS) * POLY_PER_N + len(RATIONAL_NS)),
        "polynomial_n": list(POLY_NS),
        "polynomial_jobs_per_n": BLOCKS * POLY_PER_N,
        "rational_n": BLOCKS * list(RATIONAL_NS),
        "depth": "2n+1",
        "alpha": "c + d z, c in 0..3, d in 1..2",
        "beta_polynomial": "c + d z, c in 1..3, d in 1..2",
        "beta_rational": "(c + d z)/q, c in 1..3, d in 1..2, q alternating 1 + z, 2 + z",
    }

    def make_jobs(self, E, seed: int) -> list:
        rng = random.Random(f"hankel/{seed}")
        z = E.Z

        def linear(lo_c: int):
            return rng.randint(lo_c, 3), rng.randint(1, 2)

        def rational_betas(count: int):
            dens = [1, 2] if rng.random() < 0.5 else [2, 1]
            out = []
            for k in range(count):
                e = dens[k % 2]
                while True:
                    c, d = linear(1)
                    if c != d * e:  # (c + d z) is not a multiple of (e + z)
                        break
                out.append((E.Scalar(c) + z * d) / (E.Scalar(e) + z))
            return tuple(out)

        kinds = [(n, False) for n in self.POLY_NS for _ in range(self.POLY_PER_N)]
        kinds += [(n, True) for n in self.RATIONAL_NS]
        kinds *= self.BLOCKS
        rng.shuffle(kinds)
        jobs = []
        for n, rational in kinds:
            alpha = tuple(E.Scalar(c) + z * d
                          for c, d in (linear(0) for _ in range(2 * n + 1)))
            if rational:
                beta = rational_betas(2 * n)
            else:
                beta = tuple(E.Scalar(c) + z * d
                             for c, d in (linear(1) for _ in range(2 * n)))
            jobs.append((n, E.JacobiParams(alpha, beta)))
        return jobs

    def spec(self, job) -> str:
        n, params = job
        return f"{n} {[str(a) for a in params.alpha]} {[str(b) for b in params.beta]}"

    def run(self, E, job):
        n, params = job
        moments = E.moments_from_jacobi(params, 2 * n)
        text = E.formats.sequence_to_json(moments.terms)
        back = E.formats.sequence_from_json(text)
        transform = E.hankel_transform(back, n)
        recovered = E.jacobi_from_moments(back)
        return {"moments": moments.terms, "back": tuple(back),
                "hankel": transform, "recovered": recovered}

    def digest(self, out) -> str:
        rec = out["recovered"]
        return _sha([[str(t) for t in out["moments"]], [str(h) for h in out["hankel"]],
                     [str(a) for a in rec.params.alpha], [str(b) for b in rec.params.beta],
                     rec.depth, rec.finite_support])

    def check(self, E, job, out) -> tuple[int, int]:
        """Transform against the beta-product closed form; recovered Jacobi
        data against the generated input; JSON round trip is the identity."""
        n, params = job
        rec = out["recovered"]
        ok = out["hankel"] == E.hankel_from_betas(params, n)
        ok = ok and out["back"] == out["moments"]
        ok = ok and rec.depth == n and not rec.finite_support
        ok = ok and rec.params.alpha == params.alpha[:n]
        ok = ok and rec.params.beta == params.beta[:n - 1]
        ok = ok and rec.params.a0 == params.a0
        return 1, 0 if ok else 1

    def sizes(self, E, jobs, outs) -> tuple[int, int]:
        return problem_size(
            s for out in outs for key in ("moments", "hankel") for s in out[key])


WORKLOADS = {w.name: w for w in (Verify(), Triangles(), Hankel())}
