"""Run one benchmark job in this interpreter, optionally traced.

    python3 bench/job.py [--trace] cli ARGS...           eigencount.cli.main(ARGS)
    python3 bench/job.py [--trace] orbits P:PARTS ...    orbit and centralizer sizes

``orbits`` prints one JSON line per P:PARTS spec (PARTS comma-separated,
e.g. ``3:1,2``) with the orbit and centralizer sizes of the block-diagonal
representative over F_P.

With ``--trace``, the public functions of the layers qpoly, counting,
oracle, bounds and cli are wrapped from outside as each module finishes
loading, so modules imported lazily are wrapped too.  Totals are kept in
memory and written to stderr as one JSON line starting with TRACE_PREFIX
when the job ends, before any traceback the job raises.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

TRACE_PREFIX = "bench-trace "


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Per-name call counts and times, plus named extra totals.

    Only the outermost call of a name is timed, so recursion is not counted
    twice.  A span's duration is also charged to the span that encloses it,
    which gives each span its self time.
    """

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.extra = Counter()
        self._open = Counter()
        self._children: list[float] = []  # child time of each open span
        self._in_generator = 0

    def timed(self, key, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self._open[key]:
                return fn(*args, **kwargs)
            self._open[key] += 1
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open[key] -= 1
                self.seconds[key] += dt
                self.self_seconds[key] += dt - self._children.pop()
                if self._children:
                    self._children[-1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted_generator(self, key, fn):
        """Count the items a generator function yields to callers outside
        every wrapped generator, so one built on another counts once."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._in_generator += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._in_generator -= 1
                if not self._in_generator:
                    self.extra[key] += 1
                yield item

        return wrapper

    def scan(self, kind, fn):
        """An oracle scan: matrices scanned, and worker CPU when it uses a pool."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            jobs = kwargs.get("jobs", 1)
            cpu0 = _children_cpu()
            t0 = time.perf_counter()
            report = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.extra[f"{kind}_matrices"] += report.scanned
            if jobs > 1:
                self.extra["worker_cpu_s"] += _children_cpu() - cpu0
                self.extra["pool_capacity_s"] += jobs * dt
            return report

        return wrapper

    # ------------------------------------------------------------------
    # the layers

    def wrap_module(self, name, module):
        def wrap(attr, key, make=None):
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, make(key, fn) if make else self.timed(key, fn))

        if name == "qpoly":
            cls = getattr(module, "IntPoly", None)
            for attr, key in [
                ("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                ("__radd__", "add"), ("divexact", "divexact"), ("__call__", "eval"),
                ("__str__", "render"),
            ]:
                if cls is not None and attr in vars(cls):
                    setattr(cls, attr, self.timed(key, vars(cls)[attr]))
        elif name == "counting":
            for attr in ("count_m_poly", "count_e_poly", "class_size_poly", "gl_order_poly"):
                wrap(attr, attr)
            for attr in ("weak_compositions", "strict_compositions"):
                wrap(attr, "compositions", self.counted_generator)
        elif name == "oracle":
            for attr, kind in [("count_m", "m"), ("count_e", "e"), ("count_potent", "potent")]:
                wrap(attr, attr, lambda key, fn, kind=kind: self.timed(key, self.scan(kind, fn)))

            def orbit_matrices(result, args, kwargs):
                parts, field = args[0], args[1]
                self.extra["orbit_matrices"] += field.p ** (sum(parts) ** 2)

            for attr in ("orbit_size", "centralizer_size"):
                wrap(attr, attr, lambda key, fn: self.timed(key, fn, orbit_matrices))
        elif name == "bounds":
            wrap("bound_matrix_ring", "certify")
            wrap("bound_finite_ring", "certify")
        elif name == "cli":
            wrap("main", "main")

    def report(self) -> dict:
        counting = sys.modules.get("eigencount.counting")
        hits, misses = _cache_totals(counting) if counting else (0, 0)
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "extra": dict(self.extra, cache_hits=hits, cache_misses=misses),
        }


def _cache_totals(module) -> tuple[int, int]:
    """Hits and misses summed over the module's lru caches, wrapped or not."""
    hits = misses = 0
    seen = set()
    for obj in vars(module).values():
        for candidate in (obj, getattr(obj, "__wrapped__", None)):
            info = getattr(candidate, "cache_info", None)
            if callable(info) and id(candidate) not in seen:
                seen.add(id(candidate))
                ci = info()
                hits += ci.hits
                misses += ci.misses
    return hits, misses


class _WrapOnLoad(importlib.abc.MetaPathFinder):
    """Hands each eigencount layer module to the tracer right after it executes."""

    LAYERS = ("qpoly", "counting", "oracle", "bounds", "cli")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.rpartition(".")
        if package != "eigencount" or layer not in self.LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.tracer.wrap_module(layer, module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def _orbits(specs: list[str]) -> int:
    from eigencount import oracle

    for spec in specs:
        p_text, parts_text = spec.split(":")
        p, parts = int(p_text), tuple(int(x) for x in parts_text.split(","))
        field = oracle.PrimeField(p)
        record = {
            "p": p,
            "parts": list(parts),
            "orbit": oracle.orbit_size(parts, field),
            "centralizer": oracle.centralizer_size(parts, field),
        }
        print(json.dumps(record))
    return 0


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
        tracer = Tracer()
        sys.meta_path.insert(0, _WrapOnLoad(tracer))
    mode, args = argv[0], argv[1:]
    import_s = 0.0
    try:
        if mode == "cli":
            t0 = time.perf_counter()
            from eigencount import cli

            import_s = time.perf_counter() - t0
            return cli.main(args)
        return _orbits(args)
    finally:
        if trace:
            sys.stdout.flush()
            out = tracer.report()
            out["import_s"] = import_s
            out["numpy_loaded"] = int(mode == "cli" and "numpy" in sys.modules)
            print(TRACE_PREFIX + json.dumps(out), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
