"""The in-process workloads (fleet-churn, dataplane-churn) and what all
three workloads share: the churn rotation, the post-churn forwarding probe
and the dataplane differential check.

A workload object is driven by :mod:`sfpbench.child` in four steps:
:meth:`setup` (build, prefill, warm up), :func:`run_window` (one closed-loop
measurement, traced or not, through the workload's ``load``, ``probe`` and
trace hooks), :meth:`finish` (correctness gates, peak memory) and
:meth:`close` (release processes and files).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

from sfpbench import inputs, spans
from sfpbench.measure import KINDS, SpeedGauge, Window, peak_rss_mb

_now = time.perf_counter


class Rotation:
    """evict -> admit -> modify of one tenant, then the next, round-robin.
    Admits and modifies take a fresh chain from ``fresh(k, tenant,
    version)``, ``k`` counting the chains drawn so far from ``start``."""

    def __init__(self, fresh, tenants, start: int = 0) -> None:
        self.fresh = fresh
        self.tenants = list(tenants)
        self.step = 0
        self.drawn = start
        self.version: dict[int, int] = {}

    def next(self):
        """``(kind, tenant_id, chain or None)`` of the next op."""
        tenant = self.tenants[(self.step // len(KINDS)) % len(self.tenants)]
        kind = KINDS[self.step % len(KINDS)]
        self.step += 1
        if kind == "evict":
            return kind, tenant, None
        version = self.version[tenant] = self.version.get(tenant, 0) + 1
        chain = self.fresh(self.drawn, tenant, version)
        self.drawn += 1
        return kind, tenant, chain


def apply_op(fabric, kind: str, tenant: int, chain):
    """Run one rotation op on ``fabric``; returns the fabric's result."""
    if kind == "evict":
        return fabric.evict(tenant)
    if kind == "admit":
        return fabric.admit(chain)
    return fabric.modify(tenant, chain)


def prefill(
    fabric, chains: inputs.Chains, gauge: SpeedGauge | None = None
) -> None:
    """Admit every initial chain; any refusal is a setup error."""
    for chain in chains.initial:
        result = fabric.admit(chain)
        if not result.ok:
            raise RuntimeError(
                f"prefill refused tenant {chain.tenant_id}: {result.reason}"
            )
        if gauge is not None:
            gauge.tick()


def forward(batches, window: Window, gauge: SpeedGauge) -> None:
    """Push ``(pipeline, batch)`` pairs through ``process_batch``; packets
    and the time spent inside it go to ``window``, and ``gauge`` ticks
    after each batch."""
    for pipeline, batch in batches:
        start = _now()
        pipeline.process_batch(batch)
        window.batch_s += _now() - start
        window.packets += len(batch)
        gauge.tick()


def _result_key(result) -> tuple:
    p = result.packet
    return (
        p.tenant_id, p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol,
        p.dscp, p.pass_id, p.recirculate, p.dropped, p.egress_port,
        p.scratch, result.passes, result.latency_ns,
    )


def _table_counters(pipeline) -> list:
    return [(t.name, t.hits, t.misses) for s in pipeline.stages for t in s.tables]


def differential_check(fabric, traffic: inputs.Traffic, size: int) -> list[str]:
    """One sample batch per switch through ``process_batch`` (the compiled
    path) and, on an identical copy of the pipeline with no fast path, the
    same packets through ``process_batch_interpreted``: results, table
    counters and recirculation overflows must be bit-identical."""
    problems = []
    for pipeline, batch in traffic.batches(fabric, size):
        name = pipeline.name
        # The memo maps the engine to None, so the copy runs interpreted.
        reference = copy.deepcopy(pipeline, {id(pipeline.fastpath): None})
        twin = copy.deepcopy(batch)
        got = pipeline.process_batch(batch)
        want = reference.process_batch_interpreted(twin)
        if [_result_key(r) for r in got] != [_result_key(r) for r in want]:
            problems.append(f"{name}: compiled results differ from interpreter")
        if _table_counters(pipeline) != _table_counters(reference):
            problems.append(f"{name}: table counters differ from interpreter")
        if pipeline.recirculation_overflows != reference.recirculation_overflows:
            problems.append(f"{name}: recirculation overflows differ")
    return problems


@dataclass(frozen=True)
class Size:
    """How big a workload runs (``full`` for measurements, ``tiny`` for
    the benchmark's own tests)."""

    tenants: int
    switches: int
    #: Unmeasured rotation ops before timing (dataplane-churn: rounds).
    warmup: int
    #: Packets per switch in one batch (a forwarding-probe batch on the
    #: control workloads, a round's batch on dataplane-churn).
    batch: int


#: A forwarding-probe round follows every this many seconds of untraced
#: load, and its last stretch, so that ``pps`` samples the whole window.
PROBE_S = 2.0


def run_window(workload, seconds: float, traced: bool) -> Window:
    """Run ``workload``'s closed loop for ``seconds``, in stretches of
    ``workload.STRETCH_S`` seconds.

    The workload's hooks: ``load(seconds, tracer, window)`` runs the loop,
    ``probe(window)`` one forwarding-probe round with the load paused,
    ``start_trace(tracer)`` and ``stop_trace(window)`` bracket a traced
    window.  Each stretch's times are scaled by what ``workload.gauge``
    (``None``: no scaling) saw during it, so a stretch of the host running
    slow or fast does not show in the numbers.
    """
    window = Window(threads=workload.THREADS)
    gauge = workload.gauge
    tracer = spans.Tracer() if traced else None
    stretches = max(1, round(seconds / workload.STRETCH_S))
    probe_every = max(1, round(PROBE_S / workload.STRETCH_S))
    loaded = 0.0
    if tracer is not None:
        workload.start_trace(tracer)
    try:
        for i in range(stretches):
            part = Window()
            if gauge is not None:
                gauge.reset()
            # A stretch's last op overruns its share; the next one is shorter.
            start = _now()
            workload.load((i + 1) * seconds / stretches - loaded, tracer, part)
            loaded += _now() - start
            last = i + 1 == stretches
            if not traced and ((i + 1) % probe_every == 0 or last):
                workload.probe(part)
            window.merge(part, 1.0 if gauge is None else gauge.scale())
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        window.self_s = spans.self_times(tracer.spans)
        window.calls.update(s.name for s in tracer.spans)
        window.counts.update(tracer.counts)
        workload.stop_trace(window)
    return window


class InProcessWorkload:
    """Shared body of the in-process workloads (one load thread)."""

    SIZES: dict[str, Size] = {}
    THREADS = 1
    STRETCH_S = 0.5

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = self.SIZES[size]
        self.traffic = inputs.Traffic(seed)
        self.fabric = None
        self.gauge = SpeedGauge()
        #: Failed gates found before the end of the run.
        self.problems: list[str] = []
        self.chains, self.rotation = self.make_rotation()

    def make_rotation(self) -> tuple[inputs.Chains, Rotation]:
        chains = inputs.make_chains(
            self.seed, inputs.CONTROL_CHAINS, self.size.tenants
        )
        return chains, Rotation(chains.replacement, range(self.size.tenants))

    def build(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.fabric = self.build()
        prefill(self.fabric, self.chains, self.gauge)
        self.run_ops(self.size.warmup)

    def run_ops(self, count: int) -> None:
        """Unmeasured loop iterations (warmup); any refusal is an error."""
        window = Window()
        for _ in range(count):
            self.loop_once(window, None)
        if window.failed:
            raise RuntimeError(f"{window.failed} warmup ops were refused")

    def loop_once(self, window: Window, tracer) -> None:
        """One lifecycle op of the rotation, timed into ``window``."""
        with spans.maybe_span(tracer, "bench.client"):
            kind, tenant, chain = self.next_op()
        start = _now()
        result = apply_op(self.fabric, kind, tenant, chain)
        window.record(kind, _now() - start, result.ok)
        self.gauge.tick()

    def next_op(self):
        return self.rotation.next()

    def load(self, seconds: float, tracer, window: Window) -> None:
        """Run the loop for ``seconds`` into ``window``."""
        spent = self.gauge.spent
        start = _now()
        deadline = start + seconds
        while _now() < deadline:
            self.loop_once(window, tracer)
        window.wall_s += _now() - start - (self.gauge.spent - spent)

    def start_trace(self, tracer) -> None:
        self.traced_from = self.invalidations()
        spans.install(tracer)

    def stop_trace(self, window: Window) -> None:
        window.counts["invalidations"] = self.invalidations() - self.traced_from

    def invalidations(self) -> int:
        """Fast-path plan invalidations so far, summed over switches."""
        return sum(
            shard.fastpath.stats["invalidations"]
            for shard in self.fabric.shards.values()
            if shard.fastpath is not None
        )

    def probe(self, window: Window) -> None:
        """One forwarding-probe round through the installed chains."""
        batches = self.traffic.batches(self.fabric, self.size.batch)
        forward(batches, window, self.gauge)

    def finish(self) -> dict:
        """Peak memory, then the correctness gates."""
        return {"peak_rss_mb": peak_rss_mb(), "problems": self.gates()}

    def gates(self) -> list[str]:
        return self.problems + self.fabric.check_invariant()

    def close(self) -> None:
        """Nothing outlives the process here (http-churn has a server)."""


class FleetChurn(InProcessWorkload):
    """8-switch fabric, dataplane mirror on, no WAL, 2,000 live tenants;
    one thread churns evict -> admit -> modify through the public API."""

    SIZES = {"full": Size(2000, 8, 90, 128), "tiny": Size(64, 4, 9, 64)}

    def build(self):
        from repro.fabric import FabricOrchestrator, FabricTopology

        topology = FabricTopology.full_mesh(
            self.size.switches, spec=inputs.CONTROL_SPEC
        )
        return FabricOrchestrator(topology, num_types=10, with_dataplane=True)


class DataplaneChurn(InProcessWorkload):
    """2-switch fabric on the numpy fast path, 40 tenants of 3-5 NFs x 64
    concrete rules.  Each round pushes one batch per switch through
    ``process_batch``, then evicts, re-admits and modifies one tenant."""

    SIZES = {"full": Size(40, 2, 3, 4096), "tiny": Size(8, 2, 3, 256)}
    #: Packets per switch in the differential check's sample batch.
    SAMPLE = 512

    def make_rotation(self) -> tuple[inputs.Chains, Rotation]:
        # Tenants keep their NFs and rewrite every rule.  Fresh chain shapes
        # would keep adding physical tables, and each new table invalidates
        # every plan on its switch: 2-9 such events per window, depending on
        # the seed, swung pps by 2x.  With the layout settled after set-up,
        # every compile in the window is a churned tenant's.
        chains = inputs.make_chains(
            self.seed, inputs.DATAPLANE_CHAINS, self.size.tenants, pool=0
        )
        return chains, Rotation(chains.rewrite, range(self.size.tenants))

    def build(self):
        from repro.fabric import FabricOrchestrator, FabricTopology

        topology = FabricTopology.full_mesh(self.size.switches)
        self.rules = inputs.RuleBook(self.seed)
        for chain in self.chains.initial:
            self.rules.prepare(chain)
        return FabricOrchestrator(
            topology,
            num_types=10,
            rule_factory=self.rules,
            fastpath=True,
            fastpath_backend="numpy",
        )

    def setup(self) -> None:
        super().setup()
        self.problems += [
            f"before timing: {p}"
            for p in differential_check(self.fabric, self.traffic, self.SAMPLE)
        ]

    def next_op(self):
        kind, tenant, chain = self.rotation.next()
        if chain is not None:
            self.rules.prepare(chain)
        return kind, tenant, chain

    def loop_once(self, window: Window, tracer) -> None:
        with spans.maybe_span(tracer, "bench.client"):
            batches = self.traffic.batches(self.fabric, self.size.batch)
        forward(batches, window, self.gauge)
        for _ in KINDS:
            super().loop_once(window, tracer)

    def probe(self, window: Window) -> None:
        """No probe: the rounds' own batches give ``pps``."""

    def gates(self) -> list[str]:
        return super().gates() + [
            f"after the last op: {p}"
            for p in differential_check(self.fabric, self.traffic, self.SAMPLE)
        ]
