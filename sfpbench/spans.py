"""In-memory spans recorded around the program's public functions.

A :class:`Tracer` patches a fixed list of public functions (see
:func:`install`) with thin wrappers that record one :class:`Span` per call:
its name (the layer), start, end and parent.  Parents are thread-aware: each
thread keeps its own stack of open spans, and the front end's handoff from
the HTTP thread to a shard worker is stitched back together explicitly
(``ShardWorkerPool.submit`` opens a ``frontend.server`` span that the worker's
``ShardWorker.execute`` span and a synthetic ``frontend.queue_wait`` span hang
under, and ``IntentTicket.resolve`` closes it).

Spans stay in memory while the traced window runs; :func:`self_times` turns
them into per-name *self* time (a span's duration minus the part of it that
its children cover) once the window is over.  The wrappers are installed only
for the traced window and removed afterwards, so untraced windows run the
program's own functions untouched.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Span:
    """One recorded call: ``[start, end]`` on the perf-counter clock."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None" = None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def maybe_span(tracer: "Tracer | None", name: str):
    """``tracer.span(name)``, or a no-op block when not tracing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the span.  Children may overlap one another
    and may have run on another thread; the union counts shared time once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        kids = children.get(id(span), ())
        clipped = [
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        ]
        totals[span.name] += span.duration - covered_length(clipped)
    return dict(totals)


class Tracer:
    """Span store plus the wrappers that feed it.

    ``counts`` holds what the spans alone do not say, taken at the same
    boundaries: runtime write ops, packets into a batch and through the
    kernel, escalations, spillovers and stitches.  Call counts come from the
    spans themselves.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: id(intent) -> (frontend.server span, submit-return time)
        self._handoff: dict[int, tuple[Span, float]] = {}

    # -- span stack ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        """Record a span around a block (parent: this thread's open span)."""
        stack = self._stack()
        span = Span(name, _now(), parent if parent is not None else (
            stack[-1] if stack else None))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = _now()
            stack.pop()
            self.spans.append(span)

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``count(counts, span, args, result)`` may add to :attr:`counts`."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer.counts, span, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the front end's cross-thread handoff ------------------------------
    def wrap_frontend(self) -> None:
        """Spans across ``submit`` -> queue -> ``execute`` -> ``resolve``."""
        from repro.frontend.queue import IntentTicket
        from repro.frontend.workers import ShardWorker, ShardWorkerPool

        tracer = self
        submit = ShardWorkerPool.submit
        execute = ShardWorker.execute
        resolve = IntentTicket.resolve

        def submit_wrapper(pool, intent):
            root = Span("frontend.server", _now())
            with tracer.span("frontend.submit", parent=root):
                ticket = submit(pool, intent)
            tracer._handoff[id(intent)] = (root, _now())
            return ticket

        def execute_wrapper(worker, intent):
            entry = tracer._handoff.get(id(intent))
            if entry is None:  # submitted before tracing started
                return execute(worker, intent)
            root, submitted = entry
            wait = Span("frontend.queue_wait", submitted, root)
            wait.end = _now()
            tracer.spans.append(wait)
            with tracer.span("frontend.execute", parent=root):
                return execute(worker, intent)

        def resolve_wrapper(ticket, result):
            resolved = _now()
            entry = tracer._handoff.pop(id(ticket.intent), None)
            resolve(ticket, result)
            if entry is not None:
                entry[0].end = resolved
                tracer.spans.append(entry[0])

        self._patch(ShardWorkerPool, "submit", submit_wrapper)
        self._patch(ShardWorker, "execute", execute_wrapper)
        self._patch(IntentTicket, "resolve", resolve_wrapper)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------
def _count_fabric(counts, span, args, result) -> None:
    if result is None:  # a *_local fast path deferred to the fabric-wide op
        return
    if (
        span.parent is not None
        and span.parent.name == "frontend.execute"
        and not span.name.endswith("_local")
    ):
        counts["escalations"] += 1
    counts["spillovers"] += int(result.spillover > 0)
    counts["stitched"] += int(result.stitched)


def _count_len(key: str, index: int):
    """Count hook adding ``len(args[index])`` to ``counts[key]``."""

    def count(counts, span, args, result) -> None:
        counts[key] += len(args[index])

    return count


def install(tracer: Tracer, frontend: bool = False) -> None:
    """Wrap every instrumented public function (see the module docstring;
    the layer of each span is the part of its name before the first dot)."""
    import repro.controller.controller as controller_mod
    import repro.fastpath.engine as engine_mod
    from repro.controller.controller import SfcController
    from repro.controller.install import TransactionalInstaller
    from repro.dataplane.pipeline import SwitchPipeline
    from repro.dataplane.runtime_api import RuntimeAPI
    from repro.durability.wal import WriteAheadLog
    from repro.fabric.orchestrator import FabricOrchestrator
    from repro.fastpath.engine import FastPathEngine
    from repro.fastpath.kernels import NumpyKernel

    if frontend:
        tracer.wrap_frontend()
    for op in ("admit", "evict", "modify"):
        tracer.wrap(FabricOrchestrator, op, f"fabric.{op}", _count_fabric)
        tracer.wrap(
            FabricOrchestrator, f"{op}_local", f"fabric.{op}_local",
            _count_fabric,
        )
        tracer.wrap(SfcController, op, "controller.op")
    tracer.wrap(controller_mod, "check_admission", "controller.admission")
    tracer.wrap(controller_mod, "try_place_chain", "core.placement")
    for op in ("install", "evict", "replace"):
        tracer.wrap(TransactionalInstaller, op, "controller.install")
    tracer.wrap(
        RuntimeAPI, "write", "dataplane.runtime_write",
        _count_len("runtime_ops", 1),
    )
    tracer.wrap(SwitchPipeline, "process", "dataplane.interpreter")
    tracer.wrap(WriteAheadLog, "append", "durability.append")
    tracer.wrap(os, "fdatasync", "durability.fsync")
    tracer.wrap(
        SwitchPipeline, "process_batch", "fastpath.batch",
        _count_len("batch_packets", 1),
    )
    tracer.wrap(FastPathEngine, "plan_for", "fastpath.plan")
    tracer.wrap(engine_mod, "compile_chain", "fastpath.compile")
    tracer.wrap(
        NumpyKernel, "run", "fastpath.kernel", _count_len("kernel_packets", 2)
    )
