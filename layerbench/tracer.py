"""Outside-in span tracer for one benchmark operation.

The tracer wraps named functions of the program while one operation runs and
removes the wrappers afterwards, so nothing under ``src/`` carries tracing
code.  Every wrapped call (or every ``next`` of a wrapped generator) becomes a
:class:`Span` with its thread, start, end and the enclosing span on the same
thread.  Spans stay in memory; :func:`layer_seconds` turns them into self
time per layer metric and :func:`write_chrome_trace` writes them out once the
run ends.

A function that was imported by name into another module must be wrapped
where it is called (``repro.server.gateway.batch_from_wire``, not
``repro.server.wire.batch_from_wire``): the importing module holds its own
reference.  A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`; its layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

#: ``count(counts, args, kwargs, result)``: adds per-call counts.  For a
#: generator target ``result`` is the yielded item.
CountFn = Callable[[dict, tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id on the same thread."""

    id: int
    name: str
    metric: str
    thread: int
    start: float
    end: float
    parent: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One program function to wrap.

    ``metric`` names the layer metric the span's self time goes to; a
    callable picks it from the call's ``(args, kwargs)``; ``None`` makes a
    count-only wrapper that records no span.  ``generator`` times each
    ``next`` of the returned iterator instead of the call itself.  ``group``
    runs ``count`` only when no span of the same group encloses the call on
    this thread, so a generator that delegates to another wrapped generator
    is counted once.
    """

    module: str
    qualname: str
    metric: str | Callable[[tuple, dict], str] | None
    generator: bool = False
    count: CountFn | None = None
    group: str | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"


class _Patches:
    """Replaces attributes of modules and classes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def wrap(self, module: str, qualname: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``module.qualname`` by ``make(original)``; False if it does not exist."""
        try:
            owner: Any = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            return False
        own = attr in vars(owner)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(make(raw.__func__))
        elif callable(raw):
            replacement = make(raw)
        else:
            return False
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw, own))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


class _Open:
    __slots__ = ("id", "name", "metric", "group", "start", "parent")

    def __init__(self, id_, name, metric, group, start, parent) -> None:
        self.id = id_
        self.name = name
        self.metric = metric
        self.group = group
        self.start = start
        self.parent = parent


class Tracer:
    """Records spans and counts of the wrapped targets while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = _Patches()

    # ------------------------------------------------------------- spans

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _inside(self, group: str) -> bool:
        return any(frame.group == group for frame in self._stack())

    def open(self, name: str, metric: str, group: str | None = None) -> _Open:
        stack = self._stack()
        frame = _Open(
            next(self._ids), name, metric, group, time.perf_counter(),
            stack[-1].id if stack else -1,
        )
        stack.append(frame)
        return frame

    def close(self, frame: _Open) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - a wrapped generator closed out of order
            stack.remove(frame)
        self.spans.append(
            Span(frame.id, frame.name, frame.metric, threading.get_ident(),
                 frame.start, end, frame.parent)
        )

    # ---------------------------------------------------------- wrappers

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap every target while the block runs, then put the originals back.

        Targets that do not exist are skipped and listed in :attr:`missing`.
        """
        try:
            for target in targets:
                if not self._patches.wrap(
                    target.module, target.qualname,
                    functools.partial(self._wrapper, target),
                ):
                    self.missing.append(target.label)
            yield self
        finally:
            self._patches.restore()

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        label = target.label
        count = target.count
        group = target.group

        if target.metric is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result

            return counted

        pick = target.metric if callable(target.metric) else None
        fixed = target.metric if pick is None else None

        if target.generator and inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def iterate(*args, **kwargs):
                return tracer._timed_iteration(
                    label, fixed or pick(args, kwargs), group, count,
                    args, kwargs, fn(*args, **kwargs),
                )

            return iterate

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counted_here = count is not None and not (group and tracer._inside(group))
            frame = tracer.open(label, fixed or pick(args, kwargs), group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if counted_here:
                count(tracer.counts, args, kwargs, result)
            return result

        return timed

    def _timed_iteration(self, label, metric, group, count, args, kwargs, inner):
        try:
            while True:
                counted_here = count is not None and not (group and self._inside(group))
                frame = self.open(label, metric, group)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                if counted_here:
                    count(self.counts, args, kwargs, item)
                yield item
        finally:
            inner.close()


@contextmanager
def recording(
    targets: Sequence[tuple[str, str]], observe: Callable[[tuple, Any], None]
) -> Iterator[None]:
    """Call ``observe(args, result)`` after every call to the targets.

    Used to check an operation's intermediate outputs without tracing it:
    ``observe`` folds what the checks need into its own state and keeps
    nothing else.  A target that does not exist raises :class:`LookupError`,
    because the check it feeds cannot run.
    """
    patches = _Patches()

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def record(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        return record

    try:
        for module, qualname in targets:
            if not patches.wrap(module, qualname, make):
                raise LookupError(f"cannot record {module}.{qualname}: it does not exist")
        yield
    finally:
        patches.restore()


# ------------------------------------------------------------------ analysis


def _union_seconds(intervals: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_seconds(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = _union_seconds(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.id, ())
                if child.end > span.start and child.start < span.end
            ]
        )
        result[span.id] = span.seconds - covered
    return result


def layer_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Self seconds summed per layer metric."""
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.metric] += own[span.id]
    return dict(totals)


def uncovered_seconds(spans: Sequence[Span], start: float, end: float, thread: int) -> float:
    """Seconds of ``[start, end)`` that no span on ``thread`` covers."""
    covered = _union_seconds(
        [
            (max(span.start, start), min(span.end, end))
            for span in spans
            if span.thread == thread and span.end > start and span.start < end
        ]
    )
    return (end - start) - covered


def write_chrome_trace(path, spans: Sequence[Span], origin: float) -> None:
    """Write spans as Chrome-trace JSON (load it in Perfetto or chrome://tracing)."""
    events = [
        {
            "name": span.name,
            "cat": span.metric,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": 1,
            "tid": span.thread,
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
