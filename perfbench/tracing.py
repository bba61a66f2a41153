"""Span tracing of the h4geproci layers, installed from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back when it is removed.  Nothing in the package is edited: the
wrappers see exactly the calls that go through a module attribute, so every
attribute that binds a traced function is wrapped, including the names that
other modules import (``coverings.verify_grid``, ``config.canonicalize``,
``geproci.vanishing_space`` and so on).

Two kinds of wrapper:

* a *span* wrapper around each public function of ``linalg``, ``projective``,
  ``config``, ``forms``, ``geproci`` and ``coverings``.  A span records its
  name, start, end, parent span and the field-operation time directly under
  it; spans stay in memory until the run writes them out.
* a *field* wrapper around the arithmetic methods of ``FieldElement``.  These
  run millions of times, so they keep no spans: they count every call and
  time only the outermost operation (``/`` calls ``*`` and ``inverse``), and
  add that time to the enclosing span.

The self time of a span is its duration minus the time covered by its child
spans and by the field operations directly under it.  The root frame stands
for the benchmark's own code, so the module self times, the field time and
the root's self time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

TRACED_MODULES = ("linalg", "projective", "config", "forms", "geproci",
                  "coverings")

# FieldElement methods timed as field operations, and the counter each
# one feeds.  "add" counts both + and -.
FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "__neg__": "neg",
}

# A span row: (id, parent id, name, start, end, field seconds directly under).
Span = Tuple[int, int, str, float, float, float]

_START, _FIELD, _ID = 0, 1, 2


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.observed: Counter = Counter()
        self.windows: List[Tuple[float, float, float]] = []  # start, end, root field s
        self._next_id = 1
        self._stack: List[list] = []
        self._in_field = [False]
        self.field_outer_calls = [0]
        self._saved: List[Tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self, targets: Iterable[Tuple[object, str, str, str]]) -> None:
        """Wrap each (owner, attribute, span name, kind) target.

        Kind is "span" or "field".  One wrapper is made per distinct function,
        so an alias and its original share counters and spans.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        made: Dict[int, Callable] = {}
        for owner, attr, name, kind in targets:
            original = vars(owner)[attr]
            wrapper = made.get(id(original))
            if wrapper is None:
                if kind == "field":
                    wrapper = self._field_wrapper(original, name)
                else:
                    wrapper = self._span_wrapper(original, name)
                made[id(original)] = wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def window(self, fn: Callable, *args):
        """Call fn with the wrappers' root frame open; returns fn's result.

        The window's duration is traced wall time; the root frame collects
        the field time spent directly in benchmark code.
        """
        root = [0.0, 0.0, 0]
        self._stack = [root]
        start = self.clock()
        root[_START] = start
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self.windows.append((start, end, root[_FIELD]))
            self._stack = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        clock, spans, counts = self.clock, self.spans, self.counts
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # called outside a window: not part of the run
                return fn(*args, **kwargs)
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            counts[name] += 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent[_ID], name, frame[_START], end,
                              frame[_FIELD]))
            if observe is not None:
                observe(tracer.observed, args, result)
            return result

        return wrapper

    def _field_wrapper(self, fn: Callable, name: str) -> Callable:
        clock, counts, in_field = self.clock, self.counts, self._in_field
        outer = self.field_outer_calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            stack = tracer._stack
            if not stack:
                return fn(*args)
            counts[name] += 1
            if in_field[0]:
                return fn(*args)
            outer[0] += 1
            in_field[0] = True
            start = clock()
            try:
                return fn(*args)
            finally:
                stack[-1][_FIELD] += clock() - start
                in_field[0] = False

        return wrapper


# ---------------------------------------------------------------------------
# Targets: which attributes to wrap
# ---------------------------------------------------------------------------

def discover_targets(package) -> List[Tuple[object, str, str, str]]:
    """Every attribute binding a traced function, in every package module.

    Traced functions are the public module-level functions defined in
    TRACED_MODULES, plus the FieldElement arithmetic in FIELD_OPS.
    """
    prefix = package.__name__ + "."
    modules = [package] + [m for n, m in sorted(sys.modules.items())
                           if n.startswith(prefix) and m is not None]
    names: Dict[int, str] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        if short not in TRACED_MODULES:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                names[id(obj)] = f"{short}.{attr}"
    targets = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if id(obj) in names and inspect.isfunction(obj):
                targets.append((mod, attr, names[id(obj)], "span"))
    field_cls = package.field.FieldElement
    for attr, op in FIELD_OPS.items():
        targets.append((field_cls, attr, f"field.{op}", "field"))
    return targets


# ---------------------------------------------------------------------------
# Observers: counters taken from a call's arguments or its result
# ---------------------------------------------------------------------------

def _vanishing_space_cells(observed: Counter, args: tuple, result) -> None:
    """Sum of rows x monomials over the interpolation matrices."""
    points, degree, nvars = args[:3]
    observed["forms.vanishing_space.cells"] += (
        len(points) * math.comb(degree + nvars - 1, nvars - 1))


_ATTEMPT = re.compile(r"certified on attempt (\d+)")


def _smoothness_report(observed: Counter, args: tuple, result) -> None:
    """Attempt number and clean charts, parsed from the returned report."""
    match = _ATTEMPT.search(result.reason)
    if match:
        observed["forms.smooth.attempt"] += int(match.group(1))
    observed["forms.smooth.charts_clean"] += sum(
        "clean" in step for step in result.chart_trail)


def _grids_returned(observed: Counter, args: tuple, result) -> None:
    observed["coverings.grids_returned"] += len(result)


OBSERVERS = {
    "forms.vanishing_space": _vanishing_space_cells,
    "forms.plane_curve_is_smooth": _smoothness_report,
    "coverings.enumerate_grids": _grids_returned,
}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus child spans and field time directly under it."""
    out = {sid: end - start - field
           for sid, _, _, start, end, field in spans}
    for _, parent, _, start, end, _ in spans:
        if parent in out:
            out[parent] -= end - start
    return out


def inclusive_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Name -> total duration, counting only spans with no same-named ancestor."""
    by_id = {s[0]: s for s in spans}
    totals: Dict[str, float] = {}
    for sid, parent, name, start, end, _ in spans:
        p = parent
        nested = False
        while p in by_id:
            if by_id[p][2] == name:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_summary(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times, inclusive times, call counts and the remainder.

    ``harness.self_s`` is the traced wall time not covered by any top-level
    span or field operation, so ``trace.wall_s`` equals the sum of every
    ``<module>.self_s``, ``field.ops_s`` and ``harness.self_s``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for sid, _, name, _, _, _ in spans:
        key = name.split(".", 1)[0] + ".self_s"
        out[key] = out.get(key, 0.0) + selfs[sid]
    root_field = sum(w[2] for w in tracer.windows)
    wall = sum(end - start for start, end, _ in tracer.windows)
    top = sum(s[4] - s[3] for s in spans if s[1] == 0)
    out["field.ops_s"] = sum(s[5] for s in spans) + root_field
    out["trace.wall_s"] = wall
    out["harness.self_s"] = wall - top - root_field
    for name, total in inclusive_times(spans).items():
        out[name + ".s"] = total
    for name, n in tracer.counts.items():
        out[name + ".calls"] = n
    out.update(tracer.observed)
    names = {s[0]: s[2] for s in spans}
    attempts = sum(1 for s in spans if s[2] == "geproci.verify_grid"
                   and names.get(s[1]) == "coverings.enumerate_grids")
    returned = tracer.observed.get("coverings.grids_returned", 0)
    out["coverings.grid_yield"] = returned / attempts if attempts else 0.0
    return out


# ---------------------------------------------------------------------------
# Overhead estimate
# ---------------------------------------------------------------------------

def per_call_overhead(reps: int = 5, n: int = 20000) -> Dict[str, float]:
    """Seconds a wrapper adds to one call, for each wrapper path.

    Measured on a no-op function as the best of ``reps`` loops of ``n``
    calls, wrapped minus bare.
    """
    def noop(*args):
        return None

    def span(*args):
        return None

    def field(*args):
        return None

    owner = types.SimpleNamespace(span=span, field=field)

    def best(call) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(n):
                call(1, 2)
            times.append((time.perf_counter() - start) / n)
        return min(times)

    base = best(noop)
    probe = Tracer()
    probe.install([(owner, "span", "probe.span", "span"),
                   (owner, "field", "probe.field", "field")])
    try:
        span_cost = probe.window(best, owner.span)
        field_outer = probe.window(best, owner.field)
        probe._in_field[0] = True
        field_inner = probe.window(best, owner.field)
        probe._in_field[0] = False
    finally:
        probe.remove()
    return {"span": max(0.0, span_cost - base),
            "field_outer": max(0.0, field_outer - base),
            "field_inner": max(0.0, field_inner - base)}


def estimated_overhead(tracer: Tracer, costs: Dict[str, float]) -> float:
    """Tracing overhead: wrapper calls times their measured per-call cost."""
    field_outer_calls = tracer.field_outer_calls[0]
    span_calls = sum(n for name, n in tracer.counts.items()
                     if not name.startswith("field."))
    field_calls = sum(n for name, n in tracer.counts.items()
                      if name.startswith("field."))
    return (span_calls * costs["span"]
            + field_outer_calls * costs["field_outer"]
            + (field_calls - field_outer_calls) * costs["field_inner"])
