"""Span tracer for the erarray benchmark, installed from outside the library.

``Tracer.install`` replaces the public functions of every ``erarray`` module,
and a fixed set of arithmetic and series methods, with wrappers that record
one span per call: name, start, end and parent span.  Every binding of a
wrapped object is replaced, so calls through ``from ... import`` copies
(``cli.hankel_transform``, ``riordan.invert_lower_triangular``) and through
class-level aliases (``PolyZ.__rmul__ = __mul__``) are counted as well.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

Spans live in flat ``array`` columns while a pass runs and are summarised
into per-name call counts, self times and total times afterwards.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array

# Class methods to trace, as (module, class) -> {attribute: span name}.
# Aliases of these attributes in the same class are found and wrapped too.
METHODS = {
    ("scalars", "PolyZ"): {
        "__add__": "scalars.polyz_add",
        "__mul__": "scalars.polyz_mul",
        "__divmod__": "scalars.polyz_divmod",
        "gcd": "scalars.polyz_gcd",
    },
    ("scalars", "Scalar"): {
        "__init__": "scalars.scalar_init",
        "__add__": "scalars.scalar_add",
        "__mul__": "scalars.scalar_mul",
        "__truediv__": "scalars.scalar_div",
    },
    ("series", "Series"): {
        "__add__": "series.add",
        "__mul__": "series.mul",
        "compose": "series.compose",
        "revert": "series.revert",
        "exp": "series.exp",
        "log": "series.log",
    },
}

JOB = "job"


def _package_modules(package) -> list:
    """The package and the submodules bound on it (not ``sys.modules``,
    which a later re-import of the package may have replaced)."""
    prefix = package.__name__ + "."
    return [package] + [m for _, m in sorted(vars(package).items())
                        if inspect.ismodule(m) and m.__name__.startswith(prefix)]


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records call spans of one package while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = [JOB]
        self._name_ids = {JOB: 0}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}   # id(original) -> wrapper
        self._originals: list[object] = []
        self._stack: list[int] = [-1]
        self.clear()

    # -- recording ------------------------------------------------------

    def clear(self) -> None:
        self.name_col = array("H")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._job = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _make_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name_col)
            tracer.name_col.append(name_id)
            tracer.parent_col.append(stack[-1])
            tracer.job_col.append(tracer._job)
            tracer.end_col.append(0.0)
            stack.append(idx)
            tracer.start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end_col[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def job(self, job_id: int):
        """Context manager: a root span for one benchmark job."""
        return _JobSpan(self, job_id)

    # -- installation ---------------------------------------------------

    def _targets(self):
        """(original object, span name) for every function and method traced."""
        seen = set()
        for mod in _package_modules(self.package)[1:]:
            short = _short(mod)
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__ or id(value) in seen:
                    continue
                seen.add(id(value))
                yield value, f"{short}.{attr}"
        for (mod_short, cls_name), attrs in METHODS.items():
            cls = getattr(getattr(self.package, mod_short), cls_name)
            for attr, name in attrs.items():
                yield cls.__dict__[attr], name

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for original, name in self._targets():
            fn = original.__func__ if isinstance(original, staticmethod) else original
            wrapper = self._make_wrapper(fn, name)
            if isinstance(original, staticmethod):
                wrapper = staticmethod(wrapper)
            self._wrapped[id(original)] = wrapper
            self._originals.append(original)
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        self.assert_complete()

    def _owners(self):
        for mod in _package_modules(self.package):
            yield mod
            for value in list(vars(mod).values()):
                if inspect.isclass(value) and value.__module__.startswith(
                        self.package.__name__):
                    yield value

    def assert_complete(self) -> None:
        """Raise if any module or class still binds an unwrapped original."""
        originals = {id(o) for o in self._originals}
        for owner in self._owners():
            for attr, value in vars(owner).items():
                if id(value) in originals:
                    raise AssertionError(
                        f"untraced binding {getattr(owner, '__name__', owner)}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._wrapped.clear()
        self._originals.clear()

    # -- derived numbers ------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (minus child spans) and total_s.

        total_s counts only outermost spans of a name, so recursion (a name
        nested under itself) is not counted twice.
        """
        n = len(self.name_col)
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        count = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        outer_end = [float("-inf")] * len(self.names)
        for i in range(n):
            k = names[i]
            dur = ends[i] - starts[i]
            count[k] += 1
            self_s[k] += dur - child_time[i]
            if starts[i] >= outer_end[k]:
                total_s[k] += dur
                outer_end[k] = ends[i]
        return {
            name: {"calls": count[k], "self_s": self_s[k], "total_s": total_s[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path, meta: dict) -> None:
        """Write the recorded spans, gzip'd: a JSON header line, then one
        ``name job parent start_ns end_ns`` line per span.  ``name`` indexes
        the header's ``names``, ``parent`` is a span's line number (0-based,
        -1 for a job root) and times count from the first span's start."""
        t0 = self.start_col[0] if self.start_col else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({**meta, "names": self.names,
                                  "fields": ["name", "job", "parent", "start_ns", "end_ns"],
                                  "spans": len(self.name_col)}) + "\n")
            for name, job, parent, start, end in zip(
                    self.name_col, self.job_col, self.parent_col,
                    self.start_col, self.end_col):
                out.write(f"{name} {job} {parent} {round((start - t0) * 1e9)} "
                          f"{round((end - t0) * 1e9)}\n")


class _JobSpan:
    def __init__(self, tracer: Tracer, job_id: int):
        self.tracer = tracer
        self.job_id = job_id

    def __enter__(self):
        t = self.tracer
        t._job = self.job_id
        self.idx = len(t.name_col)
        t.name_col.append(0)
        t.parent_col.append(-1)
        t.job_col.append(self.job_id)
        t.end_col.append(0.0)
        t._stack.append(self.idx)
        t.start_col.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end_col[self.idx] = time.perf_counter()
        t._stack.pop()
        t._job = -1
        return False
