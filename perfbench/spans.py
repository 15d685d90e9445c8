"""In-memory span recording around public entry points, plus the statistics
the benchmark reports.

A span is ``(id, name, start, end, parent, session, extra)``: times come from
``time.perf_counter``, ``parent`` is the id of the enclosing span on the same
thread (or None), ``session`` groups the spans of one SMTP session or one
sent message, and ``extra`` holds what the wrapper noted about the call.
Spans stay in memory until the process writes them out at exit.

A wrapper may instead *fold* calls that open no child span (a message's body
lines): each session keeps one running ``[calls, busy seconds, units, first
start, last end]`` per name, so a 256 KB body costs one record, not 3,500.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import weakref

# tail percentiles tried from the highest down; the first that leaves at
# least TAIL_MIN_BEYOND samples above it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


class Recorder:
    """Collects spans from wrapped callables on any thread.

    Span ids count up from ``first_id``; processes whose spans are merged
    use bases far enough apart that their ids never meet.
    """

    def __init__(self, first_id: int):
        self.spans: list[tuple] = []
        self.folds: dict[tuple, list] = {}
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_session(self, session) -> None:
        """Session id for root spans opened on this thread from now on."""
        self._local.session = session

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None, session_of=None, fold=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call and ``after(result, args)``
        after it; their non-None results land in the span's ``extra``.
        ``session_of(args)`` names the session of a root span.  When
        ``fold(args)`` returns a number for a root call, the call is folded
        into its session's total for ``name`` with that many units instead.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent, session = stack[-1]
            else:
                parent = None
                session = session_of(args) if session_of else getattr(recorder._local, "session", None)
                units = fold(args) if fold else None
                if units is not None:
                    start = time.perf_counter()
                    result = original(*args, **kwargs)
                    end = time.perf_counter()
                    total = recorder.folds.get((name, session))
                    if total is None:
                        recorder.folds[(name, session)] = [1, end - start, units, start, end]
                    else:
                        total[0] += 1
                        total[1] += end - start
                        total[2] += units
                        total[4] = end
                    return result
            span_id = next(recorder._ids)
            pre = before(args) if before else None
            stack.append((span_id, session))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            post = after(result, args) if after else None
            recorder.spans.append((span_id, name, start, end, parent, session, (pre, post)))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return wrapper

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        folds = [[name, session, *total] for (name, session), total in self.folds.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "folds": folds}, fh, separators=(",", ":"))


class SessionIds:
    """Stable small integers for live objects (one per SMTP session)."""

    def __init__(self):
        self._ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next = itertools.count(1)
        self._lock = threading.Lock()

    def __call__(self, obj) -> int:
        with self._lock:
            sid = self._ids.get(obj)
            if sid is None:
                sid = self._ids[obj] = next(self._next)
            return sid


def load(path: str) -> tuple[list[tuple], list[list]]:
    """(spans, folds) as written by ``Recorder.dump``; a fold is
    ``[name, session, calls, busy seconds, units, first start, last end]``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(span) for span in data["spans"]], data["folds"]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on the span's own thread, one after another,
    so their durations never overlap and can simply be summed.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (span[3] - span[2])
    return {span[0]: (span[3] - span[2]) - child_time.get(span[0], 0.0) for span in spans}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples above it; the median when the
    sample is too small for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 50.0, 0
    for pct in TAIL_LADDER:
        index = min(n - 1, int(n * pct / 100.0))
        if n - 1 - index >= TAIL_MIN_BEYOND:
            return ordered[index], pct, n
    return statistics.median(ordered), 50.0, n
