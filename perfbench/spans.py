"""In-memory span tracer that wraps the program's layers from outside.

Spans are recorded at the boundaries where the benchmark calls into a
layer, and around calls the program makes between its own modules, by
replacing module and class attributes (for example
``repro.core.active.predict_pairs``) for the lifetime of a `Tracer.installed`
block. ``src/`` is never edited.

Each span runs under its own Spark job group, so the jobs, stages and
tasks that Spark launches while the span is innermost are charged to it.
Spans and counters stay in memory until `Tracer.dump` at the end of the run.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

# How long closing a span may wait for Spark's listener bus to drain.
BUS_DRAIN_MS = 60_000

# Layers a span may belong to: the first dotted part of its name.
LAYERS = (
    "spark", "datasets", "ir", "vae", "encode", "lsh",
    "siamese", "active", "kde", "metrics",
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    def count(self, key: str, n: float = 1) -> None:
        pass


class Tracer:
    """Spans (name, start, end, parent, run id) plus per-layer counters."""

    def __init__(self, spark, run: str):
        self.spark = spark
        self.run = run
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        # Time spent in the tracer's own bookkeeping (spans and job counts).
        self.overhead_s = 0.0
        # A stage whose shuffle output a later job reuses is listed by that
        # job too: charge its tasks once, to the span that ran it.
        self._counted_stages: set[int] = set()

    # ---- spans ---------------------------------------------------------------
    def _group(self, span: Span) -> str:
        return f"{self.run}/{span.id}"

    def _set_group(self, span: Span | None) -> None:
        sc = self.spark.sparkContext
        if span is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            sc.setJobGroup(self._group(span), span.name)

    def _count_jobs(self, span: Span) -> None:
        sc = self.spark.sparkContext
        # The status tracker reads a store that Spark's listener bus fills
        # asynchronously. Every job, task and stage event of the span's
        # actions was posted before they returned, so once the bus has
        # drained the store holds their final counts.
        sc._jsc.sc().listenerBus().waitUntilEmpty(BUS_DRAIN_MS)
        st = sc.statusTracker()
        for job in st.getJobIdsForGroup(self._group(span)):
            info = st.getJobInfo(job)
            if info is None:
                raise RuntimeError(f"span {span.name}: job {job} missing from the status store")
            span.jobs += 1
            for sid in info.stageIds:
                stage = st.getStageInfo(sid)
                # A stage with no completed task was skipped: its shuffle
                # output came from an earlier job.
                if sid in self._counted_stages or stage is None or not stage.numCompletedTasks:
                    continue
                self._counted_stages.add(sid)
                span.stages += 1
                span.tasks += stage.numCompletedTasks

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), name, parent, self.run, time.perf_counter())
        self._stack.append(span)
        self._set_group(span)
        self.overhead_s += time.perf_counter() - span.start
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._count_jobs(span)
        self._stack.remove(span)
        self._set_group(self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self.overhead_s += time.perf_counter() - span.end

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span for work timed before the tracer existed."""
        parent = self._stack[-1].id if self._stack else None
        self.spans.append(Span(next(self._ids), name, parent, self.run, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    # ---- wrappers --------------------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until `uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return traced

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.uninstall()

    # ---- reporting -------------------------------------------------------------
    def _children(self) -> dict[int | None, list[Span]]:
        kids: dict[int | None, list[Span]] = defaultdict(list)
        for s in self.spans:
            kids[s.parent].append(s)
        return kids

    def _self_times(self) -> list[tuple[Span, float]]:
        """Each span with its time not covered by child spans.

        Spans run on one thread, so children of one span never overlap
        and their durations can simply be subtracted.
        """
        kids = self._children()
        return [(s, s.seconds - sum(c.seconds for c in kids[s.id])) for s in self.spans]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer."""
        out: dict[str, float] = defaultdict(float)
        for s, own in self._self_times():
            out[s.layer] += own
        return dict(out)

    def self_seconds_of(self, name: str) -> float:
        """Total self time of the spans called ``name``."""
        return sum(own for s, own in self._self_times() if s.name == name)

    def totals(self, name: str) -> tuple[float, int]:
        """Seconds and Spark tasks of every span called ``name``, tasks of
        nested spans included."""
        kids = self._children()

        def tasks(s: Span) -> int:
            return s.tasks + sum(tasks(c) for c in kids[s.id])

        named = [s for s in self.spans if s.name == name]
        return sum(s.seconds for s in named), sum(tasks(s) for s in named)

    def spark_work(self) -> tuple[int, int, int]:
        """Jobs, stages and tasks charged to any span of this tracer."""
        return (
            sum(s.jobs for s in self.spans),
            sum(s.stages for s in self.spans),
            sum(s.tasks for s in self.spans),
        )

    def dump(self) -> dict[str, Any]:
        return {
            "spans": [asdict(s) | {"layer": s.layer} for s in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "overhead_s": self.overhead_s,
        }
