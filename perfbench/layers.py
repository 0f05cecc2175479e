"""Per-layer spans recorded from outside the program.

The program is not instrumented.  :func:`install` wraps the public
entry points of each ``repro`` layer (module) in place -- the class
attribute for methods, and every module global bound to a function for
functions, so a ``from x import f`` binding is wrapped where the caller
looks it up -- and a :class:`Tracer` times one span per call.  Spans
are folded into per-name totals in memory as they close (calls, total
and self time, instructions); the stack of open spans supplies each
span's parent, and self time is a span's duration minus the time its
child spans cover.

Time during which no span other than an experiment-driver root span is
open counts as uncovered: :attr:`Tracer.bare_s` and the longest such
intervals show what the wrappers miss.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Region sizes of the backend kernel histogram: power-of-4 bucket
#: lower bounds from 64 to 65 536 (the first bucket also holds < 64).
BUCKETS = (64, 256, 1024, 4096, 16384, 65536)

_UNCOVERED_KEPT = 8


def bucket_of(region: int) -> int:
    label = BUCKETS[0]
    for bound in BUCKETS:
        if region >= bound:
            label = bound
    return label


class Span:
    """Totals for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "outer_s", "instructions", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.outer_s = 0.0  # time not nested in a span of the same group
        self.instructions = 0
        self.rows = 0


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, split: int = 0) -> None:
        self.spans: Dict[str, Span] = {}
        #: [calls, instructions, seconds] per (span, bucket) and per
        #: (span, region < ``split``): the named small/large metrics.
        self.histogram: Dict[Tuple[str, int], List[float]] = {}
        self.sides: Dict[Tuple[str, bool], List[float]] = {}
        self.split = split
        self.calls = 0
        self.sized_calls = 0
        self._stack: List[List[float]] = []  # [child seconds] per open span
        self._group_depth: Dict[str, int] = {}
        self._covered_depth = 0  # open spans that are not roots
        self._bare_since: Optional[float] = None
        self._after = "start"
        self.bare_s = 0.0
        self.uncovered: List[Tuple[float, float, str, str]] = []
        self.started: Optional[float] = None

    # -- lifecycle -------------------------------------------------------------

    def begin(self) -> None:
        self.started = time.perf_counter()
        self._bare_since = self.started

    def end(self) -> float:
        """Close the traced interval; returns its wall seconds."""
        now = time.perf_counter()
        self._close_bare(now, "end")
        return now - self.started

    def _close_bare(self, now: float, before: str) -> None:
        if self._bare_since is None:
            return
        gap = now - self._bare_since
        self.bare_s += gap
        item = (gap, self._bare_since - self.started, self._after, before)
        if len(self.uncovered) < _UNCOVERED_KEPT:
            heapq.heappush(self.uncovered, item)
        else:
            heapq.heappushpop(self.uncovered, item)
        self._bare_since = None

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        root: bool = False,
        group: Optional[str] = None,
        region: Optional[Callable] = None,
        rows: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span called ``name`` per call.

        ``region(args)`` gives the instructions one call covers (and
        feeds the region-size histogram); ``rows(args)`` the batch rows
        each covering that region.  ``group`` names spans whose outer
        time is accounted together, so recursion or nesting inside the
        group is counted once.
        """
        span = self.spans.setdefault(name, Span())
        group = group or name
        stack = self._stack
        depths = self._group_depth
        depths.setdefault(group, 0)
        clock = time.perf_counter
        binder = _binder(fn) if region is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            frame = [0.0]
            if not root:
                if self._covered_depth == 0:
                    self._close_bare(clock(), name)
                self._covered_depth += 1
            depths[group] += 1
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depths[group] -= 1
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[0]
                if depths[group] == 0:
                    span.outer_s += elapsed
                if binder is not None:
                    self.sized_calls += 1
                    bound = binder(args, kwargs)
                    size = region(bound)
                    width = rows(bound) if rows is not None else 1
                    span.instructions += size * width
                    span.rows += width
                    for cells, key in (
                        (self.histogram, (name, bucket_of(size))),
                        (self.sides, (name, size < self.split)),
                    ):
                        cell = cells.setdefault(key, [0, 0, 0.0])
                        cell[0] += 1
                        cell[1] += size * width
                        cell[2] += elapsed
                if not root:
                    self._covered_depth -= 1
                    if self._covered_depth == 0:
                        self._bare_since = clock()
                        self._after = name

        return wrapper

    def summary(self, wall_s: float) -> dict:
        """JSON-ready totals: spans, histogram and uncovered time."""
        return {
            "wall_s": wall_s,
            "calls": self.calls,
            "sized_calls": self.sized_calls,
            "bare_s": self.bare_s,
            "spans": {
                name: {field: getattr(span, field) for field in Span.__slots__}
                for name, span in sorted(self.spans.items())
            },
            "histogram": [
                [name, bucket, *cell]
                for (name, bucket), cell in sorted(self.histogram.items())
            ],
            "sides": [
                [name, small, *cell]
                for (name, small), cell in sorted(self.sides.items())
            ],
            "uncovered": sorted(self.uncovered, reverse=True),
        }


def per_call_cost(calls: int = 100_000) -> Tuple[float, float]:
    """Seconds a wrapper adds per call: (plain span, region-sized span).

    Measured on no-op functions; a region-sized span also binds the
    arguments and updates the histogram.
    """

    def noop(machine, trace, start, end):
        return None

    probe = Tracer()
    plain = probe.wrap("plain", noop)
    sized = probe.wrap("sized", noop, region=_region)
    probe.begin()
    costs = []
    for fn in (noop, plain, sized):
        started = time.perf_counter()
        for _ in range(calls):
            fn(None, None, 0, 100)
        costs.append((time.perf_counter() - started) / calls)
    return max(0.0, costs[1] - costs[0]), max(0.0, costs[2] - costs[0])


def _binder(fn: Callable) -> Callable:
    """Map a call's (args, kwargs) to a name -> value dict cheaply."""
    signature = inspect.signature(fn)
    names = list(signature.parameters)

    def bind(args, kwargs):
        if kwargs:
            return signature.bind(*args, **kwargs).arguments
        return dict(zip(names, args))

    return bind


# -- installation -------------------------------------------------------------


def _rebind(old: Callable, new: Callable) -> None:
    """Point every ``repro`` module global bound to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **kw)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, **kw)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **kw))


def _public_functions(module) -> List[Tuple[str, Callable]]:
    return [
        (attr, value)
        for attr, value in sorted(vars(module).items())
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not attr.startswith("_")
    ]


def _wrap_module(tracer: Tracer, module, layer: str) -> None:
    """Wrap a module's public functions and its classes' public methods."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, fn in _public_functions(module):
        _rebind(fn, tracer.wrap(f"{layer}.{short}.{attr}", fn))
    for attr, cls in sorted(vars(module).items()):
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for method, raw in sorted(vars(cls).items()):
            if method.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                _wrap_method(tracer, cls, method, f"{layer}.{cls.__name__}.{method}")


def _region(bound) -> int:
    return bound["end"] - bound["start"]


def _batch_rows(bound) -> int:
    return len(bound["batch"])


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call once, after importing repro."""
    import importlib
    import pkgutil

    import repro.analysis
    import repro.characterization
    from repro.cpu.kernels import registry
    from repro.cpu.simulator import Simulator
    from repro.engine import Engine
    from repro.engine.planner import Plan
    from repro.engine.store import ResultStore
    from repro.obs import history
    from repro.techniques import base as technique_base
    from repro.workloads.inputs import Workload
    from repro.workloads.trace_store import TraceStore

    # The package re-exports the function under the module's name.
    kmeans_module = importlib.import_module("repro.techniques.simpoint.kmeans")

    # engine: dispatch self time, planning and store writes.
    _wrap_method(tracer, Engine, "run_many", "engine.Engine.run_many")
    _wrap_method(tracer, Plan, "build", "engine.Plan.build")
    _wrap_method(tracer, ResultStore, "put", "engine.ResultStore.put")

    # techniques: every family's own run/run_batch/select.
    for cls in _subclasses(technique_base.SimulationTechnique):
        for attr in ("run", "run_batch", "select"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, f"techniques.{cls.__name__}.{attr}")
    for attr in ("kmeans", "pick_k"):
        fn = getattr(kmeans_module, attr)
        _rebind(fn, tracer.wrap(f"techniques.simpoint.{attr}", fn, group="kmeans"))

    # cpu: backend kernels (region-sized) and the Simulator facade.
    for cls in _subclasses(registry.Backend):
        for attr in ("advance_detailed", "run_warming"):
            if attr in cls.__dict__:
                _wrap_method(
                    tracer, cls, attr, f"cpu.{attr}", region=_region
                )
        if "advance_detailed_batch" in cls.__dict__:
            _wrap_method(
                tracer, cls, "advance_detailed_batch",
                "cpu.advance_detailed_batch", region=_region, rows=_batch_rows,
            )
    for attr, raw in sorted(vars(Simulator).items()):
        if not attr.startswith("_") and inspect.isfunction(raw):
            _wrap_method(tracer, Simulator, attr, f"cpu.Simulator.{attr}")

    # workloads: trace generation and the shared trace store.
    _wrap_method(tracer, Workload, "trace", "workloads.Workload.trace", group="trace")
    for attr in ("load", "save"):
        _wrap_method(
            tracer, TraceStore, attr, f"workloads.TraceStore.{attr}", group="trace"
        )

    # characterization / analysis: every public function and method.
    for package, layer in (
        (repro.characterization, "characterization"),
        (repro.analysis, "analysis"),
    ):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            _wrap_module(tracer, module, layer)

    # obs: the sweep-history append at engine close.
    _rebind(history.append, tracer.wrap("obs.history.append", history.append))


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
