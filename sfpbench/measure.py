"""Turning one measured window into end-to-end and per-layer metrics.

A :class:`Window` is what a workload's closed loop records: every lifecycle
op's kind, latency and outcome, the window's wall time, and for dataplane
work the packets pushed and the time spent inside ``process_batch``.  A
traced window also carries the per-name self times, span counts and event
counts of :mod:`sfpbench.spans`.

Times of work done in the benchmark's own process are reported at a fixed
reference host speed, measured by a :class:`SpeedGauge` (see its docstring).
"""

from __future__ import annotations

import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

#: Lifecycle op kinds, in rotation order.
KINDS = ("evict", "admit", "modify")

_now = time.perf_counter


def _gauge_loop(n: int) -> int:
    x = 0
    for i in range(n):
        x += i
    return x


class SpeedGauge:
    """The host's current speed, from a fixed pure-Python loop run between
    pieces of measured work.

    On a shared VM the speed of a core can drift by 1.8x within seconds,
    and whole runs land in a slow or a fast stretch, so raw CPU times of
    the same code spread by far more than any change worth catching.  The
    gauge runs bursts of :data:`BURST` loop iterations, so that they take
    :data:`SHARE` of the wall time since the last :meth:`reset`.
    :meth:`scale` is then :data:`REF_S` over the mean burst time: a time
    measured in the same stretch, multiplied by it, is the time the work
    would take on a host where one burst takes :data:`REF_S`.  The loop
    allocates no containers, so it neither triggers nor waits for the
    garbage collector, and the program never runs inside it: a change to
    the program moves the scaled times as much as the raw ones.  Burst
    time is excluded from every measured time.
    """

    BURST = 5000
    #: One burst's time at the reference speed: about the median on a
    #: 2-vCPU x86_64 VM with Python 3.11.
    REF_S = 2.5e-4
    SHARE = 0.1

    def __init__(self) -> None:
        #: Burst time over the gauge's life.
        self.total_s = 0.0
        self.reset()

    def reset(self) -> None:
        """Start a new stretch: :meth:`scale` covers bursts from now on."""
        self.start = _now()
        self.spent = 0.0
        self.bursts = 0

    def burst(self, count: int = 1) -> None:
        for _ in range(count):
            start = _now()
            _gauge_loop(self.BURST)
            elapsed = _now() - start
            self.spent += elapsed
            self.total_s += elapsed
            self.bursts += 1

    def tick(self) -> None:
        """Run bursts until they make up :data:`SHARE` of the stretch."""
        while self.spent < self.SHARE * (_now() - self.start):
            self.burst()

    def scale(self) -> float:
        """Reference over measured speed in the stretch so far."""
        if not self.bursts:
            self.burst()
        return self.REF_S * self.bursts / self.spent


@dataclass
class Window:
    """One measured window of a workload's closed loop.  Latencies,
    ``batch_s`` and ``ref_wall_s`` are at the reference host speed
    (:class:`SpeedGauge`); ``wall_s`` is as measured."""

    #: Wall time of the load, gauge bursts and probes excluded.
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    #: Client threads that ran the loop (the traced wall is threads x wall).
    threads: int = 1
    #: Latencies in seconds of the ops that succeeded, by kind.
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {kind: [] for kind in KINDS}
    )
    attempted: int = 0
    failed: int = 0
    #: Packets through ``process_batch`` and the time spent inside it.
    packets: int = 0
    batch_s: float = 0.0
    # -- traced windows only --------------------------------------------
    self_s: dict[str, float] = field(default_factory=dict)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def record(self, kind: str, latency_s: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        else:
            self.latencies[kind].append(latency_s)

    def merge(self, other: "Window", scale: float = 1.0) -> None:
        """Fold ``other`` (a stretch, or a concurrent thread's share of
        one) into this window, its times multiplied by ``scale``."""
        for kind in KINDS:
            self.latencies[kind].extend(x * scale for x in other.latencies[kind])
        self.wall_s += other.wall_s
        self.ref_wall_s += other.wall_s * scale
        self.attempted += other.attempted
        self.failed += other.failed
        self.packets += other.packets
        self.batch_s += other.batch_s * scale

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.ref_wall_s


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def end_to_end(window: Window) -> dict[str, float]:
    """The end-to-end metrics of a window (``setup_s`` and ``peak_rss_mb``
    are added by the caller; ``pps`` only when the window forwarded)."""
    lat = window.latencies
    out = {
        "ops_per_s": window.ops_per_s,
        "admit_p50_ms": 1e3 * percentile(lat["admit"], 50),
        "admit_p90_ms": 1e3 * percentile(lat["admit"], 90),
        "evict_p50_ms": 1e3 * percentile(lat["evict"], 50),
        "modify_p50_ms": 1e3 * percentile(lat["modify"], 50),
    }
    if window.packets:
        out["pps"] = window.packets / window.batch_s
    return out


#: Per-layer time metrics: metric -> the span names whose self time it sums.
LAYER_TIMES = {
    "frontend.http_self_ms": ("frontend.http",),
    "frontend.queue_wait_ms": ("frontend.queue_wait",),
    "frontend.worker_self_ms": (
        "frontend.server", "frontend.submit", "frontend.execute",
    ),
    "fabric.self_ms": (
        "fabric.admit", "fabric.evict", "fabric.modify",
        "fabric.admit_local", "fabric.evict_local", "fabric.modify_local",
    ),
    "controller.self_ms": ("controller.op",),
    "controller.admission_ms": ("controller.admission",),
    "controller.install_ms": ("controller.install",),
    "core.placement_ms": ("core.placement",),
    "dataplane.runtime_write_ms": ("dataplane.runtime_write",),
    "dataplane.interpreter_ms": ("dataplane.interpreter",),
    "durability.append_ms": ("durability.append",),
    "durability.fsync_ms": ("durability.fsync",),
    "fastpath.batch_self_ms": ("fastpath.batch",),
    "fastpath.plan_ms": ("fastpath.plan",),
    "fastpath.compile_ms": ("fastpath.compile",),
    "fastpath.kernel_ms": ("fastpath.kernel",),
    "bench.self_ms": ("bench.client",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Window, untraced: Window) -> dict[str, float]:
    """Per-layer metrics of a traced window, per lifecycle op (on
    dataplane-churn a round holds 3 ops, and its batches' time is shared
    among them), plus the trace's own coverage and overhead.  Times here
    are as measured, not scaled."""
    ops = traced.attempted
    calls, counts = traced.calls, traced.counts
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = 1e3 * sum(traced.self_s.get(n, 0.0) for n in names) / ops
    wall = traced.wall_s * traced.threads
    covered = sum(traced.self_s.values())
    out.update({
        "frontend.escalations_per_op": counts["escalations"] / ops,
        "fabric.spillovers": float(counts["spillovers"]),
        "fabric.stitched": float(counts["stitched"]),
        "core.placement_calls_per_op": calls["core.placement"] / ops,
        "dataplane.runtime_ops_per_op": counts["runtime_ops"] / ops,
        "durability.fsyncs_per_op": calls["durability.fsync"] / ops,
        "durability.records_per_fsync": _ratio(
            calls["durability.append"], calls["durability.fsync"]
        ),
        "fastpath.kernel_ns_per_pkt": 1e9 * _ratio(
            traced.self_s.get("fastpath.kernel", 0.0), counts["kernel_packets"]
        ),
        "fastpath.compiles_per_op": calls["fastpath.compile"] / ops,
        "fastpath.invalidations_per_op": counts["invalidations"] / ops,
        "fastpath.plan_hit_frac": _ratio(
            calls["fastpath.plan"] - calls["fastpath.compile"],
            calls["fastpath.plan"],
        ),
        "fastpath.fallback_frac": _ratio(
            counts["batch_packets"] - counts["kernel_packets"],
            counts["batch_packets"],
        ),
        "trace.wall_per_op_ms": 1e3 * wall / ops,
        "trace.coverage": covered / wall,
        "trace.overhead_frac": untraced.ops_per_s / traced.ops_per_s - 1.0,
    })
    return out
