"""erarray benchmark: one workload, one seed, one process, no threads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,triangles,hankel} \\
        --seed N --seconds S --trace {0,1}

The workload's fixed job list runs as a closed loop with one client: passes
over the list repeat until ``--seconds`` have elapsed (the first pass always
completes; the last may stop early).  Every job's output is checked after
its clock stops (see ``workloads.py``); failures are counted and the run
goes on.

Between consecutive jobs (three times), and every 0.02 s inside a job, a
fixed reference computation runs: a 24 x 24 ``Fraction`` convolution from the standard
library, which no change to erarray can alter.  A job's cost is its latency
(less the reference runs inside it) divided by the mean time of the
reference runs around and inside it, so its unit, ``ref``, is "reference
runs".  The shared two-core host this benchmark was written on slows all
work by up to 1.5x in phases lasting from seconds to minutes; latencies in
seconds follow those phases, costs in ``ref`` do not (both sides of the
ratio slow together).  Wall-clock numbers are printed alongside.

``--trace 0`` prints, from the median cost of each job over the passes:

- ``verdict_ref``: the summed cost of the job list, i.e. the time to a
  verdict for the whole list (``verdict_s`` is the same in seconds);
- ``job_p50_ref``, ``job_p90_ref``: median and 90th percentile (interpolated)
  of the job costs (``job_p50_ms``, ``job_p90_ms`` in wall time);
- ``setup_s``: median time of a fresh import of ``erarray`` plus input
  generation, repeated at intervals through the run;
- ``peak_rss_mb``: peak resident memory of the process;
- ``fail_frac``: failed over attempted checks, on the report line and as
  ``failed``/``attempted``.

``--trace 1`` alternates untraced and traced passes and prints per-layer
call counts, self and total times from the tracer's spans, the problem size
of the outputs, and ``trace.overhead_ratio``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same numbers, the seed and
the machine (nproc, Python version, CPU model) are also written to
``perfbench/results/``, with the spans of the first traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 20
REFERENCE_INTERVAL_S = 0.02

sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Span names reported by the traced run.  Leaf arithmetic reports calls and
# self time; the layers above also report total time (callees included).
SELF_ONLY = (
    "scalars.polyz_mul", "scalars.polyz_add", "scalars.polyz_divmod",
    "scalars.polyz_gcd", "scalars.scalar_init", "scalars.scalar_add",
    "scalars.scalar_mul", "scalars.scalar_div",
    "series.mul", "series.add", "series.divide", "series.exp", "series.log",
)
WITH_TOTAL = (
    "series.compose", "series.revert", "expr.parse_series",
    "riordan.er_build", "riordan.er_mul", "riordan.er_inverse", "riordan.er_apply",
    "riordan.production_from_pair", "riordan.production_direct",
    "orthopoly.moments_from_jacobi", "orthopoly.invert_lower_triangular",
    "orthopoly.jfraction_expand", "orthopoly.jacobi_from_moments",
    "hankel.hankel_transform", "hankel.det_scalar", "hankel.det_bareiss",
    "sequences.named_pair", "formats.triangle_to_bfile",
    "formats.sequence_to_json", "formats.sequence_from_json", "cli.cmd_verify",
)

_REF_A = tuple(Fraction(k + 1, 2 * k + 3) for k in range(24))
_REF_B = tuple(Fraction(3 * k + 1, k + 2) for k in range(24))


def reference_seconds(repeats: int = 1) -> float:
    """Mean time of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        out = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
        for i, a in enumerate(_REF_A):
            for j, b in enumerate(_REF_B):
                out[i + j] += a * b
    return (time.perf_counter() - t0) / repeats


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "platform": platform.platform()}


def import_erarray():
    """Import erarray from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "erarray" or n.startswith("erarray.")]:
        del sys.modules[name]
    package = importlib.import_module("erarray")
    importlib.import_module("erarray.cli")
    importlib.import_module("erarray.formats")
    if Path(package.__file__).resolve().parent != SRC / "erarray":
        raise ImportError(f"erarray imported from {package.__file__}, not {SRC}")
    return package


def setup(workload, seed: int):
    """Import plus input generation; returns the package, jobs and time."""
    t0 = time.perf_counter()
    package = import_erarray()
    jobs = workload.make_jobs(package, seed)
    return package, jobs, time.perf_counter() - t0


def p90(values) -> float:
    """90th percentile, interpolated between neighbouring order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(str(x) for x in lines).encode()).hexdigest()


class ReferenceTicks:
    """Inside a job, runs the reference computation every
    REFERENCE_INTERVAL_S from a SIGALRM handler, so that a long job is
    normalised by the machine speed during the job, not only around it.
    ``spent`` is the wall time the handler took, to be left out of the job.
    """

    def __enter__(self):
        self.refs, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.refs.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


class Pass:
    """Runs the jobs once, in order, each between two reference runs.

    No job starts after ``deadline``, so a pass may end early.
    ``after_job`` is called after each job's clock has stopped.  Untraced
    passes also run the reference inside long jobs (``ReferenceTicks``);
    traced passes do not, so that span times hold only library work.
    """

    def __init__(self, workload, package, jobs, tracer=None, after_job=None,
                 deadline=None):
        self.outputs, self.errors, self.latencies, self.costs = [], [], [], []
        clock = time.perf_counter
        ref_before = reference_seconds(3)
        for index, job in enumerate(jobs):
            if deadline is not None and clock() >= deadline:
                break
            ticks = None
            t0 = clock()
            try:
                if tracer is None:
                    with ReferenceTicks() as ticks:
                        out = workload.run(package, job)
                else:
                    with tracer.job(index):
                        out = workload.run(package, job)
                err = None
            except Exception as exc:  # a failed job is counted; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            refs = [ref_before]
            if ticks is not None:
                latency -= ticks.spent
                refs += ticks.refs
            ref_after = reference_seconds(3)
            refs.append(ref_after)
            self.latencies.append(latency)
            self.costs.append(latency / statistics.fmean(refs))
            self.outputs.append(out)
            self.errors.append(err)
            ref_before = ref_after
            if after_job is not None:
                after_job()


def per_job_median(passes, field: str) -> list[float]:
    """Per job, the median of ``field`` over the passes that reached it."""
    samples = [[] for _ in getattr(passes[0], field)]
    for p in passes:
        for index, value in enumerate(getattr(p, field)):
            samples[index].append(value)
    return [statistics.median(s) for s in samples]


class Gate:
    """Checks each job's first output; later passes must reproduce its digest."""

    def __init__(self, workload, package, jobs):
        self.workload, self.package, self.jobs = workload, package, jobs
        self.reference: list[tuple[str | None, int, int]] = []
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def _first(self, index, out, err):
        if err is not None:
            self.messages.append(f"job {index}: {err}")
            return None, 1, 1
        try:
            checked, failed = self.workload.check(self.package, self.jobs[index], out)
        except Exception as exc:  # a crashing check is a failed job
            self.messages.append(f"job {index} check: {type(exc).__name__}: {exc}")
            checked, failed = 1, 1
        if failed:
            self.messages.append(f"job {index}: {failed} of {checked} checks failed")
        return self.workload.digest(out), checked, failed

    def add(self, outputs, errors) -> list[str | None]:
        """Count one pass; returns its output digests."""
        first = not self.reference
        digests = []
        for index, (out, err) in enumerate(zip(outputs, errors)):
            if first:
                self.reference.append(self._first(index, out, err))
            ref, checked, failed = self.reference[index]
            digest = None if err is not None else self.workload.digest(out)
            if digest != ref and not failed:
                self.messages.append(f"job {index}: output differs from first pass")
                failed = checked
            digests.append(digest)
            self.attempted += checked
            self.failed += failed
        return digests


def end_to_end(workload, package, jobs, seconds, seed, setup_s):
    gate = Gate(workload, package, jobs)
    passes = []
    setups = [setup_s]
    start = last_setup = time.perf_counter()
    deadline = start + seconds

    def sample_setup():
        # Set-up is timed again every seconds/SETUP_SAMPLES, between jobs,
        # so that its median spans the run like the job costs do.
        nonlocal last_setup
        if time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
            setups.append(setup(workload, seed)[2])
            last_setup = time.perf_counter()

    while not passes or time.perf_counter() < deadline:
        p = Pass(workload, package, jobs, after_job=sample_setup,
                 deadline=deadline if passes else None)
        gate.add(p.outputs, p.errors)
        p.outputs = None  # keep memory flat: peak_rss_mb must not grow with passes
        passes.append(p)
    costs = per_job_median(passes, "costs")
    wall = per_job_median(passes, "latencies")
    metrics = {
        "verdict_ref": (sum(costs), "ref"),
        "job_p50_ref": (statistics.median(costs), "ref"),
        "job_p90_ref": (p90(costs), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_metrics = {
        "verdict_s": (sum(wall), "s"),
        "job_p50_ms": (1e3 * statistics.median(wall), "ms"),
        "job_p90_ms": (1e3 * p90(wall), "ms"),
    }
    extra = {"passes": len(passes), "jobs": len(jobs), "setup_samples": len(setups),
             "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall_metrics.items()}}
    return metrics, gate, extra


def traced(workload, package, jobs, seconds, spans_path, meta):
    gate = Gate(workload, package, jobs)
    plain, marked, summaries = [], [], []
    counts, sizes, problems = None, None, []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        p = Pass(workload, package, jobs)
        untraced_digests = gate.add(p.outputs, p.errors)
        if sizes is None:
            sizes = workload.sizes(package, jobs, p.outputs)
        p.outputs = None
        plain.append(p)
        tracer = Tracer(package)
        tracer.install()
        try:
            t = Pass(workload, package, jobs, tracer)
        finally:
            tracer.uninstall()
        if gate.add(t.outputs, t.errors) != untraced_digests:
            problems.append("traced outputs differ from untraced outputs")
        t.outputs = None
        marked.append(t)
        summary = tracer.summary()
        pass_counts = {name: s["calls"] for name, s in summary.items()}
        if counts is None:
            counts = pass_counts
            tracer.write(spans_path, meta)
        elif pass_counts != counts:
            problems.append("call counts differ between traced passes")
        summaries.append(summary)
    metrics = {}
    absent = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    for name in SELF_ONLY + WITH_TOTAL:
        rows = [s.get(name, absent) for s in summaries]
        metrics[f"{name}.calls"] = (rows[0]["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(r["self_s"] for r in rows), "s")
        if name in WITH_TOTAL:
            metrics[f"{name}.total_s"] = (statistics.median(r["total_s"] for r in rows), "s")
    metrics["scalars.max_zdeg"] = (sizes[0], "count")
    metrics["scalars.max_coeff_bits"] = (sizes[1], "bit")
    metrics["trace.overhead_ratio"] = (
        sum(per_job_median(marked, "costs")) / sum(per_job_median(plain, "costs")),
        "ratio")
    extra = {"passes": len(plain), "traced_passes": len(marked), "problems": problems,
             "calls": counts, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, gate, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "erarray" / "__init__.py").is_file():
        print(f"error: no erarray sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    package, jobs, setup_s = setup(workload, args.seed)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": workload.params,
            "job_list_sha256": sha256_lines(workload.spec(j) for j in jobs),
            "machine": machine_info()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, gate, extra = traced(workload, package, jobs, args.seconds,
                                      RESULTS / f"{stem}.spans.gz", info)
    else:
        metrics, gate, extra = end_to_end(workload, package, jobs, args.seconds,
                                          args.seed, setup_s)
    problems = extra.get("problems", [])
    correct = gate.failed == 0 and not problems
    fail_frac = gate.failed / gate.attempted

    shown = dict(metrics)
    shown.update({k: (v["value"], v["unit"]) for k, v in extra.get("wall", {}).items()})
    shown["fail_frac"] = (fail_frac, "ratio")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in gate.messages[:20] + problems:
        print(f"problem: {message}")
    print(f"checks: {gate.failed} failed of {gate.attempted}; "
          f"machine: {json.dumps(info['machine'])}")

    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {**info, **extra, **result, "fail_frac": fail_frac,
              "output_sha256": sha256_lines(r[0] for r in gate.reference)}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
