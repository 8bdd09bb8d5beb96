"""In-memory spans around public ``hardyseq`` calls, and the statistics the
benchmark reports from them.

A :class:`Tracer` records one span per call: name, start, end, parent span
and the window size N of the call (or -1).  Spans live in compact arrays and
are summarised once the traced pass ends.  :func:`traced` installs wrappers
that replace each public function in every ``hardyseq`` module that bound
it, and class methods on their class, and restores the originals on exit;
nothing inside the package is edited, so a refactor of private helpers
cannot break the benchmark.
"""

from __future__ import annotations

import contextlib
import math
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


class Tracer:
    """Spans as parallel arrays; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = -1, size: int = -1) -> int:
        """Append a finished span, for traces built by hand."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.size.append(size)
        self.start.append(start)
        self.end.append(end)
        return idx

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, size: int = -1) -> Iterator[None]:
        idx = self._open(self.name_id(name), size)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int, size: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        size_of: Callable[..., int] | None = None,
        label: Callable[[Any], str] | None = None,
        on_result: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``size_of(*args)`` gives N; ``label(result)`` appends a suffix to the
        span name once the call returns; ``on_result`` updates counters.
        """
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid, size_of(*args, **kwargs) if size_of else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if label is not None:
                self.name[idx] = self.name_id(f"{name}.{label(result)}")
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Installing and removing wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is a module name, or ``module:Class`` for a method on a class
    (``attr`` then names the method, e.g. ``__init__``).
    """

    span: str
    owner: str
    attr: str
    size_of: Callable[..., int] | None = None
    label: Callable[[Any], str] | None = None
    on_result: Callable[[Tracer, tuple, Any], None] | None = None


def _package_modules() -> list[Any]:
    """The loaded modules of the ``hardyseq`` package."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "hardyseq" or name.startswith("hardyseq."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer, targets: Iterable[Target]) -> Iterator[Tracer]:
    """Install a wrapper for every target; restore the originals on exit.

    A module-level function is replaced under every name that any module of
    ``hardyseq`` binds to it, so calls through ``from x import f`` and
    through ``module.f`` are both traced.
    """
    undo: list[tuple[Any, str, Any]] = []
    modules = _package_modules()
    try:
        for t in targets:
            if ":" in t.owner:
                mod_name, cls_name = t.owner.split(":")
                owner = getattr(sys.modules[mod_name], cls_name)
                original = owner.__dict__[t.attr]
                undo.append((owner, t.attr, original))
                setattr(owner, t.attr, tracer.wrap(t.span, original, t.size_of, t.label, t.on_result))
                continue
            original = getattr(sys.modules[t.owner], t.attr)
            wrapper = tracer.wrap(t.span, original, t.size_of, t.label, t.on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    n = len(tracer.start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        lo, hi = tracer.start[i], tracer.end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda j: tracer.start[j]):
            a, b = max(tracer.start[c], lo), min(tracer.end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer) -> dict[str, NameStats]:
    """Calls, inclusive and self time per span name."""
    selfs = self_times(tracer)
    stats: dict[str, NameStats] = {}
    for i, s in enumerate(selfs):
        st = stats.setdefault(tracer.names[tracer.name[i]], NameStats())
        st.calls += 1
        st.total_s += tracer.end[i] - tracer.start[i]
        st.self_s += s
    return stats


def durations_by_size(tracer: Tracer, base: str) -> dict[int, list[float]]:
    """Inclusive durations of spans named ``base`` or ``base.<label>``, by N."""
    ids = {i for i, nm in enumerate(tracer.names) if nm == base or nm.startswith(base + ".")}
    out: dict[int, list[float]] = {}
    for i in range(len(tracer.start)):
        if tracer.name[i] in ids and tracer.size[i] > 0:
            out.setdefault(tracer.size[i], []).append(tracer.end[i] - tracer.start[i])
    return out


def median(xs: list[float]) -> float:
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else 0.5 * (s[m - 1] + s[m])


def n_exp(by_size: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time per call) against log N.

    Needs at least two distinct sizes; returns 0.0 otherwise (the layer has
    no size range on this workload).
    """
    pts = [(math.log(n), math.log(median(ts))) for n, ts in sorted(by_size.items()) if ts and median(ts) > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(pct / 100 * n)``."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[max(1, -(-pct * len(values) // 100)) - 1]
