"""Span recording for the traced benchmark run.

A span is (name, start, end, parent, pass id).  Spans and counters stay
in memory and are written out when the run ends.  The program is not
edited: the traced run swaps functions in the ``procforge.pipeline``
namespace for recording wrappers (``patched``) and restores them
afterwards.  Private helpers such as ``repair._move_deltas`` stay
unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

SETUP = "setup"
STAGE_PREFIX = "pipeline.stage."


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str


class Tracer:
    """Collects spans and per-pass counters; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = SETUP
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.pass_id))

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[self.pass_id][name] += value

    def set(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[self.pass_id][name] = value

    def wrap(self, span_name: str, fn, observe=None):
        """``fn`` itself when disabled; otherwise a wrapper recording a span
        and, after it closes, calling ``observe(tracer, result, args)``."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "counters": {p: dict(c) for p, c in self.counters.items()},
        }
        path.write_text(json.dumps(doc) + "\n", "utf-8")


@contextlib.contextmanager
def patched(module, tracer: Tracer, wrappers: dict[str, tuple[str, object]]):
    """Swap ``module.<attr>`` for traced wrappers; restore on exit.

    ``wrappers`` maps attribute name -> (span name, observer or None).
    """
    saved = {attr: getattr(module, attr) for attr in wrappers}
    try:
        for attr, (span_name, observe) in wrappers.items():
            setattr(module, attr, tracer.wrap(span_name, saved[attr], observe))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are merged first)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def per_pass_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Seconds per pass id and metric name (``<span name>_s``).

    Stage spans report their whole duration; every other span reports
    its self time, since ``validate_artifact`` recurses into itself.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        seconds = s.end - s.start if s.name.startswith(STAGE_PREFIX) else selfs[s.id]
        out[s.pass_id][s.name + "_s"] += seconds
    return out


def layer_values(tracer: Tracer, traced_passes: list[str]) -> dict[str, float]:
    """One value per metric: the median over traced passes of the per-pass
    total.  A metric recorded only during set-up reports its set-up total."""
    by_pass = per_pass_times(tracer.spans)
    for pass_id, counters in tracer.counters.items():
        for name, value in counters.items():
            by_pass[pass_id][name] += value
    names = {name for values in by_pass.values() for name in values}
    out = {}
    for name in names:
        in_passes = [by_pass[p].get(name, 0.0) for p in traced_passes]
        if any(name in by_pass[p] for p in traced_passes):
            out[name] = statistics.median(in_passes)
        else:
            out[name] = by_pass[SETUP].get(name, 0.0)
    return out
