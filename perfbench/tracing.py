"""In-memory spans around calls into the program's public functions.

:class:`Tracer` replaces a function or method with a timing wrapper and
puts the original back on :meth:`Tracer.uninstall`.  Each call records a
span ``(name, parent, start, end, self_seconds)``; a span's self time is
its duration minus the time covered by the spans it caused (tracked per
thread, so the serving batcher, gateway loop and executor threads keep
separate stacks).  Spans stay in memory until the run ends.

Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans written by the serve launcher line
up with the load generator's window in the benchmark process.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

Span = Tuple[str, Optional[str], float, float, float]

_MISSING = object()


class Tracer:
    """Records spans for wrapped callables until uninstalled."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str,
             name: Union[str, Callable[..., str]]) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled.  ``name`` may be a callable receiving the
        call's arguments, for spans bucketed by argument shape.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            rewrap, function = type(raw), raw.__func__
        else:
            rewrap, function = None, raw
        timed = self._timed(function, name)
        self.patch(owner, attr, rewrap(timed) if rewrap else timed)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped callable back as it was."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _timed(self, function, name):
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append((span_name, parent, start, end, duration - frame[1]))

        timed.__wrapped__ = function
        return timed

    # ------------------------------------------------------------------
    # reading spans back
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def self_totals(spans, start: float = float("-inf"),
                end: float = float("inf")) -> Dict[str, Tuple[int, float]]:
    """name -> (calls, summed self seconds) of spans starting in a window."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for name, _, span_start, _, self_seconds in spans:
        if start <= span_start < end:
            entry = totals[name]
            entry[0] += 1
            entry[1] += self_seconds
    return {name: (int(n), s) for name, (n, s) in totals.items()}
