"""Self-test of the erarray benchmark's gates and tracer.

    python3 perfbench/selftest.py

Checks, on a few small jobs of each workload:

- the gate passes real outputs and counts a deliberately wrong expected
  value as a failure, so ``fail_frac`` cannot pass vacuously;
- the tracer wraps class-level aliases and ``from ... import`` copies, and
  restores every binding when uninstalled;
- traced outputs equal untraced ones, and two traced runs on one seed give
  identical call counts and output digests;
- the seed determines the job list: same seed, same digest; another seed,
  another digest;
- the layers each workload is meant to bypass are not called: no
  ``series.revert`` on ``hankel``, no ``PolyZ.gcd`` on ``triangles``;
- the spans file reads back with one line per recorded span;
- a run prints exactly the metrics ``BENCHMARK.json`` declares, with the
  declared units.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys

import run
from tracer import Tracer
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def small_jobs(workload, package, seed: int, count: int = 3):
    jobs = workload.make_jobs(package, seed)
    if workload.name == "verify":
        return jobs[:1]
    return sorted(jobs, key=lambda j: j[0])[:count]


def tampered(workload, out):
    """The same output with one value off by one."""
    if workload.name == "verify":
        rc, text = out
        return rc, text + "FAIL deliberately wrong expected value\n"
    if workload.name == "triangles":
        inv = out["inv"]
        rows = [list(r) for r in inv.entries]
        rows[2][1] = rows[2][1] + 1
        bad = dataclasses.replace(inv, entries=tuple(tuple(r) for r in rows))
        return {**out, "inv": bad}
    return {**out, "hankel": out["hankel"][:-1] + [out["hankel"][-1] + 1]}


def traced_run(workload, package, jobs):
    tracer = Tracer(package)
    tracer.install()
    try:
        p = run.Pass(workload, package, jobs, tracer)
    finally:
        tracer.uninstall()
    counts = {name: s["calls"] for name, s in tracer.summary().items()}
    return tracer, [workload.digest(o) for o in p.outputs], counts


def check_tracer_bindings(package) -> None:
    scalars, series = package.scalars, package.series
    originals = {
        "PolyZ.__add__": scalars.PolyZ.__dict__["__add__"],
        "cli.hankel_transform": package.cli.hankel_transform,
        "riordan.invert_lower_triangular": package.riordan.invert_lower_triangular,
    }
    tracer = Tracer(package)
    tracer.install()
    try:
        expect(scalars.PolyZ.__dict__["__radd__"] is scalars.PolyZ.__dict__["__add__"]
               and scalars.PolyZ.__dict__["__add__"] is not originals["PolyZ.__add__"],
               "PolyZ.__radd__ alias is traced with __add__")
        expect(scalars.PolyZ.__dict__["__rmul__"] is scalars.PolyZ.__dict__["__mul__"],
               "PolyZ.__rmul__ alias is traced with __mul__")
        expect(scalars.Scalar.__dict__["__radd__"] is scalars.Scalar.__dict__["__add__"]
               and scalars.Scalar.__dict__["__rmul__"] is scalars.Scalar.__dict__["__mul__"],
               "Scalar.__radd__/__rmul__ aliases are traced")
        expect(series.Series.__dict__["__radd__"] is series.Series.__dict__["__add__"],
               "Series.__radd__ alias is traced with __add__")
        expect(package.cli.hankel_transform is package.hankel.hankel_transform
               and package.cli.hankel_transform is not originals["cli.hankel_transform"],
               "cli.hankel_transform is the traced hankel.hankel_transform")
        expect(package.riordan.invert_lower_triangular
               is package.orthopoly.invert_lower_triangular
               and package.riordan.invert_lower_triangular
               is not originals["riordan.invert_lower_triangular"],
               "riordan.invert_lower_triangular is the traced orthopoly function")
        a = scalars.PolyZ((1, 2))
        before = len(tracer.name_col)
        _ = 3 + a
        expect(len(tracer.name_col) > before, "a reflected PolyZ addition records a span")
    finally:
        tracer.uninstall()
    expect(scalars.PolyZ.__dict__["__add__"] is originals["PolyZ.__add__"]
           and package.cli.hankel_transform is originals["cli.hankel_transform"],
           "uninstall restores the original bindings")


def declared_metrics(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def check_declared(workload, package, jobs) -> None:
    """Short end-to-end and traced runs print the declared metrics."""
    metrics, gate, _ = run.end_to_end(workload, package, jobs, 1e-3, 7, 0.01)
    printed = {name: unit for name, (_, unit) in metrics.items()}
    expect(printed == declared_metrics("end_to_end") and gate.failed == 0,
           f"{workload.name}: --trace 0 prints the declared end-to-end metrics")
    path = run.RESULTS / f"selftest-{workload.name}.spans.gz"
    metrics, gate, extra = run.traced(workload, package, jobs, 1e-3, path, {})
    printed = {name: unit for name, (_, unit) in metrics.items()}
    expect(printed == declared_metrics("per_layer") and gate.failed == 0
           and not extra["problems"],
           f"{workload.name}: --trace 1 prints the declared per-layer metrics")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    package = run.import_erarray()
    run.RESULTS.mkdir(exist_ok=True)
    check_tracer_bindings(package)
    for workload in WORKLOADS.values():
        name = workload.name
        jobs = small_jobs(workload, package, seed=7)
        p = run.Pass(workload, package, jobs)
        outputs, errors = p.outputs, p.errors
        expect(not any(errors), f"{name}: small jobs run without error")

        gate = run.Gate(workload, package, jobs)
        gate.add(outputs, errors)
        expect(gate.failed == 0 and gate.attempted > 0, f"{name}: gate passes real outputs")
        wrong = [tampered(workload, outputs[0])] + outputs[1:]
        gate = run.Gate(workload, package, jobs)
        gate.add(wrong, errors)
        expect(gate.failed >= 1, f"{name}: gate counts a wrong expected value as a failure")

        plain = [workload.digest(o) for o in outputs]
        tracer, digests1, counts1 = traced_run(workload, package, jobs)
        _, digests2, counts2 = traced_run(workload, package, jobs)
        expect(digests1 == plain, f"{name}: traced outputs equal untraced outputs")
        expect(digests1 == digests2 and counts1 == counts2,
               f"{name}: two traced runs give identical call counts and outputs")
        if name == "hankel":
            expect(counts1.get("series.revert", 0) == 0, "hankel: no series.revert calls")
        if name == "triangles":
            expect(counts1.get("scalars.polyz_gcd", 0) == 0, "triangles: no PolyZ.gcd calls")

        if name != "verify":
            spec = lambda seed: run.sha256_lines(  # noqa: E731
                workload.spec(j) for j in workload.make_jobs(package, seed))
            expect(spec(7) == spec(7) and spec(7) != spec(8),
                   f"{name}: the seed, and only the seed, sets the job list")

        path = run.RESULTS / f"selftest-{name}.spans.gz"
        tracer.write(path, {"workload": name})
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            rows = sum(1 for _ in handle)
        expect(rows == header["spans"] == len(tracer.name_col),
               f"{name}: spans file holds every recorded span")
        check_declared(workload, package, jobs)
    if FAILURES:
        print(f"{len(FAILURES)} self-test check(s) failed")
        return 1
    print("all self-test checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
