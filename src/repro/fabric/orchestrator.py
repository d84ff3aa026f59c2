"""The fabric orchestrator: N per-switch SFC controllers behind one API.

:class:`FabricOrchestrator` shards tenant SFCs across a switch cluster.
Every fabric switch runs its own full :class:`~repro.controller.controller.
SfcController` — admission, placement, transactional data-plane installs —
and the orchestrator owns only what is genuinely *cross*-switch:

* **Routing.**  A pluggable partitioner (:mod:`repro.fabric.partitioner`)
  yields a preference order over active switches; the orchestrator walks it
  with per-switch admission as the fallback, recording spillover when a
  tenant lands off its preferred shard.
* **Stitching.**  Chains no single switch can host are split at a fold
  boundary (:mod:`repro.fabric.stitching`) into two segments placed on
  adjacent switches; the inter-switch link is charged the tenant's
  bandwidth through :class:`~repro.core.state.LinkState` — the same
  commit/release discipline as each switch's backplane.
* **Drain / failover.**  ``drain(switch)`` excludes a switch and re-homes
  its tenants through the normal admit path on the survivors, reporting
  who moved and who could not be re-placed; the drained shard ends with
  zero tenant rules.

The orchestrator inherits the controller's bookkeeping discipline: link
loads, like backplanes, are exact integer sums of whole bandwidth units
(:mod:`repro.units`), so the incremental fabric state stays
**bit-identical** to a from-scratch recomputation by construction —
:meth:`check_invariant` asserts exactly that, per shard and per link.
Every directory write goes through :meth:`_set_tenant`, which charges the
link difference, keeps the stitched-tenant count as a running total, and
marks the gauges the write touched; no lifecycle op walks the live
tenants.

**Concurrency.**  The fabric is safe to drive from the concurrent front
end's shard workers (:mod:`repro.frontend.workers`).  Every shard has its
own lock; the ``*_local`` fast paths (:meth:`admit_local`,
:meth:`evict_local`, :meth:`modify_local`) decide single-shard intents
under exactly one shard lock, so workers on different shards run
concurrently.  Anything cross-shard — spillover, stitching, drain — goes
through the public lifecycle methods, which acquire *every* shard lock in
sorted-name order (a total order, hence deadlock-free against fast paths,
which never hold more than one shard lock).  The shared tenant directory,
link loads, and gauges sit under an inner ``_dir_lock``.  Callers must
keep per-tenant program order themselves (the intent queue's
at-most-one-in-flight-per-tenant rule); read paths (``digest``,
``summary``, ``check_invariant``) are quiesce-only — call them with no op
in flight.  When journaling runs concurrently, set :attr:`journal_digests`
to ``False``: the fabric-wide digest reads every shard and cannot be
computed consistently under one shard lock (recovery verifies digests only
when present; the concurrent bench proves convergence by crash-recovery
against a serial-replay oracle instead).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.controller.admission import AdmissionPolicy
from repro.controller.controller import OpResult, RuleFactory, SfcController
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import LinkState, PipelineState, stable_digest
from repro.errors import PlacementError
from repro.fabric.partitioner import ConsistentHashPartitioner, Partitioner
from repro.fabric.stitching import StitchPlan, plan_stitch
from repro.fabric.topology import FabricTopology, LinkKey
from repro.telemetry.metrics import MetricsRegistry, Timer
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import Tracer, maybe_span


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of a tenant's chain on one fabric switch:
    positions ``[start, stop)`` of the logical chain, installed as
    ``sfc`` at virtual stages ``stages`` on ``switch``."""

    switch: str
    sfc: SFC
    start: int
    stop: int
    stages: tuple[int, ...]


@dataclass(frozen=True)
class FabricTenant:
    """Fabric-level directory entry: the tenant's full logical chain plus
    where its segments live and which links they cross."""

    sfc: SFC
    segments: tuple[Segment, ...]
    links: tuple[LinkKey, ...] = ()

    @property
    def stitched(self) -> bool:
        return len(self.segments) > 1

    @property
    def switches(self) -> tuple[str, ...]:
        return tuple(seg.switch for seg in self.segments)


@dataclass
class FabricOpResult:
    """Outcome of one fabric operation.  Field-compatible with the
    per-switch :class:`~repro.controller.controller.OpResult` where the
    churn replay machinery needs it (``ok``/``op``/``latency_s``/rule
    churn), plus the fabric-only routing facts."""

    ok: bool
    tenant_id: int
    op: str
    switches: tuple[str, ...] = ()
    #: True when the chain was split across two switches.
    stitched: bool = False
    #: Preference rank of the accepting switch (0 = first choice; > 0
    #: means the tenant spilled over past rejecting shards).
    spillover: int = 0
    reason: str | None = None
    detail: str = ""
    hitless: bool = True
    latency_s: float = 0.0
    rules_added: int = 0
    rules_deleted: int = 0


@dataclass(frozen=True)
class DrainReport:
    """What ``drain(switch)`` did to the drained switch's tenants."""

    switch: str
    rehomed: tuple[int, ...] = ()
    evicted: tuple[int, ...] = ()

    @property
    def num_rehomed(self) -> int:
        return len(self.rehomed)

    @property
    def num_evicted(self) -> int:
        return len(self.evicted)

    def describe(self) -> str:
        """One-line human-readable summary (the CLI's output)."""
        return (
            f"drained {self.switch}: {self.num_rehomed} tenants re-homed, "
            f"{self.num_evicted} evicted"
        )


def _single(switch: str, sfc: SFC, result: OpResult) -> FabricTenant:
    """The directory record of a chain placed whole on ``switch``."""
    return FabricTenant(sfc, (Segment(switch, sfc, 0, sfc.length, result.stages),))


class FabricOrchestrator:
    """Tenant lifecycle (admit / evict / modify / drain) over a switch
    cluster, one :class:`SfcController` shard per fabric switch."""

    def __init__(
        self,
        topology: FabricTopology,
        num_types: int,
        partitioner: Partitioner | None = None,
        with_dataplane: bool = True,
        policy: AdmissionPolicy | None = None,
        consolidate: bool = True,
        reserve_physical_block: bool = True,
        rule_factory: RuleFactory | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        fastpath: bool = False,
        fastpath_backend: str = "auto",
    ) -> None:
        self.topology = topology
        self.num_types = num_types
        self.partitioner = partitioner or ConsistentHashPartitioner()
        self.with_dataplane = with_dataplane
        #: Optional control-plane tracer, cascaded into every shard so one
        #: fabric admit yields one causally linked span tree
        #: (fabric -> controller -> install -> runtime.write).
        self.tracer = tracer
        #: Always-on flight recorder (bounded ring): lifecycle transitions
        #: land here, and the invariant checker / drain path snap the ring
        #: automatically on failure.  Pass your own to share it fabric-wide.
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.shards: dict[str, SfcController] = {}
        for name in topology.switch_names:
            node = topology.nodes[name]
            instance = ProblemInstance(
                switch=node.spec,
                sfcs=(),
                num_types=num_types,
                max_recirculations=node.max_recirculations,
            )
            self.shards[name] = SfcController(
                instance,
                with_dataplane=with_dataplane,
                policy=policy,
                consolidate=consolidate,
                reserve_physical_block=reserve_physical_block,
                rule_factory=rule_factory,
                name=name,
                tracer=tracer,
                recorder=self.recorder,
                fastpath=fastpath,
                fastpath_backend=fastpath_backend,
            )
        self.links: dict[LinkKey, LinkState] = {
            key: LinkState(link.capacity_gbps)
            for key, link in topology.links.items()
        }
        #: Fabric-level tenant directory (the only cross-switch state).
        #: Written only through :meth:`_set_tenant`.
        self.tenants: dict[int, FabricTenant] = {}
        #: Running count of stitched directory entries.
        self._stitched = 0
        #: Switches / links whose gauges a directory write touched since the
        #: last :meth:`_refresh_gauges` (all of them, before the first).
        self._dirty_switches: set[str] = set(topology.switch_names)
        self._dirty_links: set[LinkKey] = set(topology.links)
        self.drained: set[str] = set()
        self.metrics = MetricsRegistry()
        # -- concurrency seams (see the module docstring) ----------------
        #: One lock per shard.  Fast paths hold exactly one; the public
        #: lifecycle methods acquire all of them in sorted-name order.
        self._shard_locks: dict[str, threading.RLock] = {
            name: threading.RLock() for name in topology.switch_names
        }
        self._lock_order: tuple[str, ...] = tuple(
            sorted(topology.switch_names)
        )
        #: Guards the tenant directory, link loads, and gauge refreshes —
        #: the state single-shard fast paths on *different* shards share.
        self._dir_lock = threading.RLock()
        #: Embed the fabric-wide digest in every journaled op (the per-LSN
        #: recovery oracle).  The concurrent front end sets this ``False``:
        #: the digest reads every shard and would tear under one shard
        #: lock.  Recovery only verifies digests that are present.
        self.journal_digests = True
        #: Optional durability coordinator (:class:`~repro.durability.
        #: checkpoint.FabricDurability`), set by ``attach()``.  Every
        #: successful fabric op is journaled to the fabric manifest log —
        #: the authoritative redo log recovery replays — while each shard
        #: additionally journals its own ops to a per-switch WAL shard.
        self.durability = None
        #: HA role: ``"primary"`` serves writes; a ``"standby"`` fabric is
        #: driven only by WAL replay and the frontend refuses writes on it
        #: (role-aware 503 + redirect to the primary).
        self.role = "primary"
        #: Fencing token of the lease reign this fabric serves under
        #: (0 = HA not in play; see :mod:`repro.ha.lease`).
        self.epoch = 0
        #: Lifecycle-op count at the last global re-optimization pass —
        #: :meth:`maybe_reoptimize` gates its cadence on the drift since.
        self._last_reopt_ops = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active_switches(self) -> list[str]:
        """Sorted names of switches accepting new placements."""
        return [n for n in self.topology.switch_names if n not in self.drained]

    def metrics_snapshot(self) -> dict:
        """Current fabric metrics as one plain dict."""
        return self.metrics.snapshot()

    def digest(self) -> str:
        """Stable blake2b digest of the whole fabric: every shard's state
        digest, every link's load digest, the tenant directory (chains,
        segments, link charges) and the drained set.  Bit-identical fabric
        states — and only those — hash equal; this is the quantity the
        durability subsystem journals per LSN and recovery must reproduce.
        """
        return stable_digest(
            {
                "shards": {
                    name: self.shards[name].state.digest()
                    for name in self.topology.switch_names
                },
                "links": {
                    f"{a}-{b}": self.links[(a, b)].digest()
                    for a, b in sorted(self.links)
                },
                "tenants": [
                    {
                        "tenant_id": t,
                        "sfc": self.tenants[t].sfc.to_dict(),
                        "segments": [
                            [seg.switch, seg.start, seg.stop, list(seg.stages)]
                            for seg in self.tenants[t].segments
                        ],
                        "links": [list(key) for key in self.tenants[t].links],
                    }
                    for t in sorted(self.tenants)
                ],
                "drained": sorted(self.drained),
            }
        )

    def summary(self) -> dict:
        """Aggregate fabric state as one JSON-native dict: per-switch
        occupancy, link loads, tenant/stitch counts."""
        switches = {}
        for name in self.topology.switch_names:
            shard = self.shards[name]
            switches[name] = {
                "tenants": len(shard.tenants),
                "backplane_gbps": shard.state.backplane_gbps,
                "blocks_used": [
                    shard.state.blocks_at_stage(s)
                    for s in range(shard.base.switch.stages)
                ],
                "drained": name in self.drained,
            }
        links = {
            f"{a}-{b}": {
                "load_gbps": self.links[(a, b)].load_gbps,
                "capacity_gbps": self.links[(a, b)].capacity_gbps,
            }
            for a, b in sorted(self.links)
        }
        counters = self.metrics.snapshot()["counters"]
        return {
            "switches": switches,
            "links": links,
            "tenants": len(self.tenants),
            "stitched_tenants": self._stitched,
            "globalopt": {
                "runs": int(counters.get("globalopt.runs", 0)),
                "moves_planned": int(
                    counters.get("globalopt.moves_planned", 0)
                ),
                "moves_executed": int(
                    counters.get("globalopt.moves_executed", 0)
                ),
                "moves_skipped": int(
                    counters.get("globalopt.moves_skipped", 0)
                ),
                "moves_failed": int(
                    counters.get("globalopt.moves_failed", 0)
                ),
            },
        }

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    @contextmanager
    def _fabric_locked(self):
        """Hold every shard lock, acquired in sorted-name order — the
        fabric-wide total order that makes cross-shard ops deadlock-free
        against single-shard fast paths (which never hold more than one
        shard lock, so they can never close a cycle)."""
        for name in self._lock_order:
            self._shard_locks[name].acquire()
        try:
            yield
        finally:
            for name in reversed(self._lock_order):
                self._shard_locks[name].release()

    def _reject(
        self, tenant_id: int, op: str, reason: str, detail: str, timer: Timer
    ) -> FabricOpResult:
        self.metrics.inc("rejected")
        self.metrics.inc(f"rejected.{reason}")
        return FabricOpResult(
            ok=False,
            tenant_id=tenant_id,
            op=op,
            reason=reason,
            detail=detail,
            latency_s=timer.elapsed_s,
        )

    def _record_op(self, result: FabricOpResult) -> None:
        """Log one fabric lifecycle outcome into the flight recorder."""
        self.recorder.record_state(
            f"fabric.{result.op}",
            tenant=result.tenant_id,
            ok=result.ok,
            switches=list(result.switches),
            stitched=result.stitched,
            reason=result.reason,
        )

    def _commit_durable(self, op: str, data: dict) -> None:
        """Journal one successful fabric op (plus, when
        :attr:`journal_digests` is on, the post-op fabric digest —
        recovery's per-LSN oracle) to the attached coordinator."""
        if self.durability is None:
            return
        payload = dict(data)
        if self.journal_digests:
            payload["digest"] = self.digest()
        self.durability.commit_op(self, op, payload)

    def _set_tenant(self, tenant_id: int, record: FabricTenant | None) -> None:
        """The one write path for the tenant directory: store ``record``
        (``None`` drops the tenant), release the old record's link charges
        and commit the new one's, move the running stitched count, and mark
        every switch and link either record touches for the next gauge
        refresh.  Exact integer units make the charge order irrelevant."""
        with self._dir_lock:
            old = self.tenants.get(tenant_id)
            if old is not None:
                for key in old.links:
                    self.links[key].release_load(old.sfc.bandwidth_units)
                self._stitched -= old.stitched
                self._dirty_switches.update(old.switches)
                self._dirty_links.update(old.links)
            if record is None:
                self.tenants.pop(tenant_id, None)
                return
            for key in record.links:
                self.links[key].add_load(record.sfc.bandwidth_units)
            self.tenants[tenant_id] = record
            self._stitched += record.stitched
            self._dirty_switches.update(record.switches)
            self._dirty_links.update(record.links)

    def _refresh_gauges(self) -> None:
        """Refresh the fleet gauges and those of every switch and link a
        directory write touched since the last refresh — O(touched), read
        from running totals."""
        with self._dir_lock:
            self.metrics.gauge("tenants").set(len(self.tenants))
            self.metrics.gauge("stitched_tenants").set(self._stitched)
            for name in self._dirty_switches:
                shard = self.shards[name]
                self.metrics.gauge(f"backplane_gbps.{name}").set(
                    shard.state.backplane_gbps
                )
                self.metrics.gauge(f"tenants.{name}").set(len(shard.tenants))
            for a, b in self._dirty_links:
                self.metrics.gauge(f"link_load_gbps.{a}-{b}").set(
                    self.links[(a, b)].load_gbps
                )
            self._dirty_switches.clear()
            self._dirty_links.clear()

    def promote(self, epoch: int, durability=None) -> list[str]:
        """Promote-from-replica entry point: flip a standby-replayed fabric
        into the serving primary at lease ``epoch``.

        Validates the fabric invariant, adopts the new fencing token, and —
        when a fresh :class:`~repro.durability.checkpoint.FabricDurability`
        is supplied (built with ``start_lsn`` = the replica's applied LSN,
        so the journal continues the failed primary's LSN sequence) —
        attaches it, stamps it with the new epoch, and takes an immediate
        checkpoint so the promoted state is durable before the first write
        is served.  Returns the invariant problems (empty = clean
        takeover); on problems the durability attach still happens but the
        checkpoint is skipped, mirroring recovery's behaviour."""
        with self._fabric_locked():
            problems = self.check_invariant()
            self.role = "primary"
            self.epoch = int(epoch)
            if durability is not None:
                durability.attach(self)
                durability.set_epoch(self.epoch)
                if not problems:
                    durability.checkpoint(self)
            self._refresh_gauges()
            self.metrics.inc("ha.promotions")
            self.recorder.snap(
                "ha-promote",
                epoch=self.epoch,
                digest=self.digest(),
                ok=not problems,
            )
        return problems

    def _observe_admit(self, switch: str, result: OpResult) -> None:
        self.metrics.observe(f"admit_latency_s.{switch}", result.latency_s)

    def _commit_stitch(
        self, sfc: SFC, plan: StitchPlan, op: str, order: list[str], timer: Timer
    ) -> FabricOpResult | None:
        """Admit both planned segments and charge the link; ``None`` (with
        any partial admit rolled back) if a shard refuses after all —
        planning probed ``can_host``, so only a data-plane surprise can
        land here."""
        head_res = self.shards[plan.head_switch].admit(plan.head)
        self._observe_admit(plan.head_switch, head_res)
        if not head_res.ok:
            return None
        tail_res = self.shards[plan.tail_switch].admit(plan.tail)
        self._observe_admit(plan.tail_switch, tail_res)
        if not tail_res.ok:
            self.shards[plan.head_switch].evict(sfc.tenant_id)
            return None
        head = Segment(plan.head_switch, plan.head, 0, plan.split, head_res.stages)
        tail = Segment(
            plan.tail_switch, plan.tail, plan.split, sfc.length, tail_res.stages
        )
        self._set_tenant(sfc.tenant_id, FabricTenant(sfc, (head, tail), (plan.link,)))
        self.metrics.inc("stitched")
        return FabricOpResult(
            ok=True,
            tenant_id=sfc.tenant_id,
            op=op,
            switches=(plan.head_switch, plan.tail_switch),
            stitched=True,
            spillover=order.index(plan.head_switch),
            rules_added=head_res.rules_added + tail_res.rules_added,
            latency_s=timer.elapsed_s,
        )

    def _place(self, sfc: SFC, op: str, timer: Timer) -> FabricOpResult:
        """Route one chain: preferred shard first, spillover down the
        partitioner order, cross-switch stitching as the last resort."""
        order = self.partitioner.order(sfc, self)
        if not order:
            return self._reject(
                sfc.tenant_id, op, "no-active-switch",
                "every fabric switch is drained", timer,
            )
        last: OpResult | None = None
        for rank, name in enumerate(order):
            placed, last = self._admit_on(name, sfc, op, rank, timer)
            if placed is not None:
                return placed
        plan = plan_stitch(self, sfc, order)
        if plan is not None:
            stitched = self._commit_stitch(sfc, plan, op, order, timer)
            if stitched is not None:
                return stitched
        assert last is not None  # order was non-empty
        return self._reject(
            sfc.tenant_id, op, last.reason or "no-feasible-placement",
            f"no single switch fits and stitching failed; last shard said: "
            f"{last.detail}", timer,
        )

    def _admit_on(
        self, name: str, sfc: SFC, op: str, rank: int, timer: Timer
    ) -> tuple[FabricOpResult | None, OpResult]:
        """Offer the whole chain to shard ``name`` (preference ``rank``);
        on success record it in the directory.  Returns the fabric result
        (``None`` = refused) and the shard's own result."""
        result = self.shards[name].admit(sfc)
        self._observe_admit(name, result)
        if not result.ok:
            return None, result
        self._set_tenant(sfc.tenant_id, _single(name, sfc, result))
        if rank:
            self.metrics.inc("spillovers")
        return FabricOpResult(
            ok=True,
            tenant_id=sfc.tenant_id,
            op=op,
            switches=(name,),
            spillover=rank,
            rules_added=result.rules_added,
            latency_s=timer.elapsed_s,
        ), result

    def _remove(self, tenant_id: int) -> tuple[FabricTenant, int]:
        """Evict every segment of a directory tenant and release its link
        charges; returns the removed record and the rule-churn total.
        Caller holds the lock of every shard the tenant touches."""
        with self._dir_lock:
            record = self.tenants[tenant_id]
            self._set_tenant(tenant_id, None)
        deleted = 0
        for seg in record.segments:
            result = self.shards[seg.switch].evict(tenant_id)
            deleted += result.rules_deleted
        return record, deleted

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------
    def admit(self, sfc: SFC) -> FabricOpResult:
        """Admit one tenant chain somewhere on the fabric."""
        with self._fabric_locked():
            with maybe_span(
                self.tracer, "fabric.admit", tenant=sfc.tenant_id
            ) as span, self.metrics.timer("op_latency_s.admit") as timer:
                result = self._admit(sfc, timer)
                span.set(
                    ok=result.ok, switches=list(result.switches),
                    stitched=result.stitched,
                )
            self._record_op(result)
            if result.ok:
                self._commit_durable(
                    "admit", {"tenant_id": sfc.tenant_id, "sfc": sfc.to_dict()}
                )
        return result

    def _admit(self, sfc: SFC, timer: Timer) -> FabricOpResult:
        if sfc.tenant_id in self.tenants:
            return self._reject(
                sfc.tenant_id, "admit", "duplicate-tenant",
                f"tenant {sfc.tenant_id} already has a live chain", timer,
            )
        result = self._place(sfc, "admit", timer)
        if result.ok:
            self.metrics.inc("admitted")
            self._refresh_gauges()
        return result

    def evict(self, tenant_id: int) -> FabricOpResult:
        """Tenant departure: tear down every segment, release links."""
        with self._fabric_locked():
            with maybe_span(
                self.tracer, "fabric.evict", tenant=tenant_id
            ) as span, self.metrics.timer("op_latency_s.evict") as timer:
                result = self._evict(tenant_id, timer)
                span.set(ok=result.ok, switches=list(result.switches))
            self._record_op(result)
            if result.ok:
                self._commit_durable("evict", {"tenant_id": tenant_id})
        return result

    def _evict(self, tenant_id: int, timer: Timer) -> FabricOpResult:
        if tenant_id not in self.tenants:
            return self._reject(
                tenant_id, "evict", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        return self._evicted(tenant_id, timer)

    def _evicted(self, tenant_id: int, timer: Timer) -> FabricOpResult:
        """Remove a live directory tenant and report the eviction."""
        record, deleted = self._remove(tenant_id)
        self.metrics.inc("evicted")
        self._refresh_gauges()
        return FabricOpResult(
            ok=True,
            tenant_id=tenant_id,
            op="evict",
            switches=record.switches,
            stitched=record.stitched,
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    def modify(self, tenant_id: int, new_chain: SFC) -> FabricOpResult:
        """Swap a live tenant's chain.  Single-homed tenants first try a
        hitless in-place modify on their home shard; stitched tenants (or
        a home-shard refusal) fall back to re-homing — evict then re-admit
        through the normal routing path (not hitless).  If the new chain
        fits nowhere, the old chain is restored (its resources were just
        freed, so the same routing re-places it) and the rejection is
        returned."""
        with self._fabric_locked():
            with maybe_span(
                self.tracer, "fabric.modify", tenant=tenant_id
            ) as span, self.metrics.timer("op_latency_s.modify") as timer:
                result = self._modify(tenant_id, new_chain, timer)
                span.set(ok=result.ok, hitless=result.hitless)
            self._record_op(result)
            # Failed modifies are journaled too (unless trivially rejected):
            # a refused re-home still evicts + re-places the old chain, which
            # can land the tenant on different switches — a state change
            # replay must re-drive.
            if result.ok or result.reason != "unknown-tenant":
                self._commit_durable(
                    "modify",
                    {
                        "tenant_id": tenant_id,
                        "sfc": new_chain.to_dict(),
                        "ok": result.ok,
                    },
                )
        return result

    def _modify(
        self, tenant_id: int, new_chain: SFC, timer: Timer
    ) -> FabricOpResult:
        record = self.tenants.get(tenant_id)
        if record is None:
            return self._reject(
                tenant_id, "modify", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        new_sfc = replace(new_chain, tenant_id=tenant_id)
        if not record.stitched:
            home = record.segments[0].switch
            result = self._modify_home(tenant_id, home, new_sfc, timer)
            if result is not None:
                return result
        old_record, deleted = self._remove(tenant_id)
        placed = self._place(new_sfc, "modify", timer)
        if placed.ok:
            self.metrics.inc("modified")
            self.metrics.inc("modify_rehomed")
            self._refresh_gauges()
            placed.hitless = False
            placed.rules_deleted += deleted
            return placed
        restored = self._place(old_record.sfc, "modify", timer)
        if not restored.ok:
            # Should be unreachable (the old chain's resources were just
            # freed); counted so a regression cannot hide.
            self.metrics.inc("modify_restore_failed")
        self._refresh_gauges()
        return placed

    def _modify_home(
        self, tenant_id: int, home: str, new_sfc: SFC, timer: Timer
    ) -> FabricOpResult | None:
        """Hitless in-place modify of a single-homed tenant on its home
        shard; ``None`` when the shard refuses."""
        result = self.shards[home].modify(tenant_id, new_sfc)
        if not result.ok:
            return None
        self._set_tenant(tenant_id, _single(home, new_sfc, result))
        self.metrics.inc("modified")
        self._refresh_gauges()
        return FabricOpResult(
            ok=True,
            tenant_id=tenant_id,
            op="modify",
            switches=(home,),
            hitless=result.hitless,
            rules_added=result.rules_added,
            rules_deleted=result.rules_deleted,
            latency_s=timer.elapsed_s,
        )

    # ------------------------------------------------------------------
    # Drain / failover
    # ------------------------------------------------------------------
    def drain(self, switch: str) -> DrainReport:
        """Take ``switch`` out of service: exclude it from routing, then
        re-home every tenant with a segment on it through the normal admit
        path on the surviving shards.  Tenants that fit nowhere else are
        evicted.  Afterwards the drained shard hosts zero tenants and zero
        tenant rules.  Tenants that could not be re-homed snap the flight
        recorder, preserving the event window that led to each eviction."""
        if switch not in self.shards:
            raise PlacementError(f"unknown switch {switch!r}")
        with self._fabric_locked():
            with maybe_span(
                self.tracer, "fabric.drain", switch=switch
            ) as span, self.metrics.timer("op_latency_s.drain"):
                self.drained.add(switch)
                affected = sorted(
                    tenant_id
                    for tenant_id, record in self.tenants.items()
                    if switch in record.switches
                )
                rehomed: list[int] = []
                evicted: list[int] = []
                for tenant_id in affected:
                    record, _deleted = self._remove(tenant_id)
                    placed = self._place(record.sfc, "drain", Timer())
                    if placed.ok:
                        rehomed.append(tenant_id)
                    else:
                        evicted.append(tenant_id)
                self.metrics.inc("drains")
                self.metrics.inc("drain.rehomed", len(rehomed))
                self.metrics.inc("drain.evicted", len(evicted))
                self._refresh_gauges()
                span.set(rehomed=len(rehomed), evicted=len(evicted))
            self.recorder.record_state(
                "fabric.drain", switch=switch,
                rehomed=list(rehomed), evicted=list(evicted),
            )
            if evicted:
                self.recorder.snap(
                    "drain-evicted-tenants", switch=switch,
                    evicted=list(evicted),
                )
            self._commit_durable(
                "drain",
                {
                    "switch": switch,
                    "rehomed": list(rehomed),
                    "evicted": list(evicted),
                },
            )
        return DrainReport(
            switch=switch, rehomed=tuple(rehomed), evicted=tuple(evicted)
        )

    def undrain(self, switch: str) -> None:
        """Return a drained switch to the routing pool (its tenants do not
        move back; new arrivals may land on it again)."""
        if switch not in self.shards:
            raise PlacementError(f"unknown switch {switch!r}")
        with self._fabric_locked():
            self.drained.discard(switch)
            self._commit_durable("undrain", {"switch": switch})

    # ------------------------------------------------------------------
    # Global re-optimization (see :mod:`repro.globalopt`)
    # ------------------------------------------------------------------
    def reoptimize(self, **kwargs):
        """Run one fleet-wide re-optimization pass: snapshot the fabric,
        re-solve the tenant->switch assignment, and hitlessly migrate the
        wins.  Thin wrapper over :func:`repro.globalopt.reoptimize_fabric`
        (kwargs pass through); returns its :class:`~repro.globalopt.
        ReoptReport`."""
        from repro.globalopt import reoptimize_fabric

        return reoptimize_fabric(self, **kwargs)

    def maybe_reoptimize(
        self,
        min_stitched: int = 2,
        min_interval_ops: int = 200,
        **kwargs,
    ):
        """Drift-gated cadence: run :meth:`reoptimize` only when the fleet
        looks fragmented (at least ``min_stitched`` stitched tenants) and
        enough lifecycle churn (``min_interval_ops`` admits/evicts/
        modifies) has passed since the last pass.  Returns the report, or
        ``None`` when the gate holds."""
        counters = self.metrics.snapshot()["counters"]
        ops = (
            int(counters.get("admitted", 0))
            + int(counters.get("evicted", 0))
            + int(counters.get("modified", 0))
        )
        if ops - self._last_reopt_ops < min_interval_ops:
            return None
        if self._stitched < min_stitched:
            self._last_reopt_ops = ops
            return None
        return self.reoptimize(**kwargs)

    # ------------------------------------------------------------------
    # Single-shard fast paths (the concurrent front end's entry points)
    # ------------------------------------------------------------------
    # Each ``*_local`` decides an intent under exactly one shard lock when
    # the outcome is provably single-shard, and returns ``None`` when the
    # caller must escalate to the matching public method (which takes the
    # fabric-wide lock order).  Callers must serialize ops per tenant
    # (the intent queue's at-most-one-in-flight rule); the journaled
    # record order then matches execution order per shard and per tenant,
    # because the journal append happens before the shard lock is
    # released.
    def preferred_switch(self, sfc: SFC) -> str | None:
        """The partitioner's first active choice for ``sfc`` — the shard
        the front end routes an admit intent to (``None`` = all drained).
        Only pure (state-independent) partitioners make concurrent routing
        reproducible under replay; see :mod:`repro.fabric.partitioner`."""
        order = self.partitioner.order(sfc, self)
        return order[0] if order else None

    def home_switch(self, tenant_id: int) -> str | None:
        """The single home shard of ``tenant_id`` — how the front end
        routes evict/modify intents.  ``None`` when the tenant is unknown
        (any worker may reject it) or stitched (escalate)."""
        with self._dir_lock:
            record = self.tenants.get(tenant_id)
            if record is None or record.stitched:
                return None
            return record.segments[0].switch

    def admit_local(self, sfc: SFC, switch: str) -> FabricOpResult | None:
        """Fast-path admit: try exactly ``switch`` (the caller's routing
        choice, normally :meth:`preferred_switch`) under that shard's lock
        alone.  Returns the result when the outcome is decided locally —
        success, or a duplicate-tenant rejection — and ``None`` when this
        shard refuses and the caller must escalate to :meth:`admit`
        (spillover / stitching need the fabric-wide lock order)."""
        lock = self._shard_locks.get(switch)
        if lock is None:
            raise PlacementError(f"unknown switch {switch!r}")
        with lock:
            with maybe_span(
                self.tracer, "fabric.admit", tenant=sfc.tenant_id
            ) as span, self.metrics.timer("op_latency_s.admit") as timer:
                with self._dir_lock:
                    duplicate = sfc.tenant_id in self.tenants
                    drained = switch in self.drained
                if duplicate:
                    result = self._reject(
                        sfc.tenant_id, "admit", "duplicate-tenant",
                        f"tenant {sfc.tenant_id} already has a live chain",
                        timer,
                    )
                    span.set(ok=False, switches=[], stitched=False)
                    self._record_op(result)
                    return result
                if drained:
                    span.set(escalated=True)
                    return None
                result, _ = self._admit_on(switch, sfc, "admit", 0, timer)
                if result is None:
                    span.set(escalated=True)
                    return None
                self.metrics.inc("admitted")
                self._refresh_gauges()
                span.set(ok=True, switches=[switch], stitched=False)
            self._record_op(result)
            self._commit_durable(
                "admit", {"tenant_id": sfc.tenant_id, "sfc": sfc.to_dict()}
            )
        return result

    def evict_local(self, tenant_id: int) -> FabricOpResult | None:
        """Fast-path evict under the tenant's home-shard lock alone.
        Decides unknown tenants (rejection) and single-homed tenants
        locally; returns ``None`` for stitched tenants, which touch two
        shards and a link and must go through :meth:`evict`."""
        with self._home_locked(tenant_id, "evict") as (home, rejected):
            if home is None:
                return rejected
            with maybe_span(
                self.tracer, "fabric.evict", tenant=tenant_id
            ) as span, self.metrics.timer("op_latency_s.evict") as timer:
                result = self._evicted(tenant_id, timer)
                span.set(ok=True, switches=list(result.switches))
            self._record_op(result)
            self._commit_durable("evict", {"tenant_id": tenant_id})
        return result

    def modify_local(
        self, tenant_id: int, new_chain: SFC
    ) -> FabricOpResult | None:
        """Fast-path modify: hitless in-place swap on a single-homed
        tenant's home shard, under that shard's lock alone.  Returns
        ``None`` for stitched tenants or when the home shard refuses the
        in-place swap — re-homing evicts and re-routes, so it must go
        through :meth:`modify`."""
        with self._home_locked(tenant_id, "modify") as (home, rejected):
            if home is None:
                return rejected
            with maybe_span(
                self.tracer, "fabric.modify", tenant=tenant_id
            ) as span, self.metrics.timer("op_latency_s.modify") as timer:
                new_sfc = replace(new_chain, tenant_id=tenant_id)
                result = self._modify_home(tenant_id, home, new_sfc, timer)
                if result is None:
                    span.set(escalated=True)
                    return None
                span.set(ok=True, hitless=result.hitless)
            self._record_op(result)
            self._commit_durable(
                "modify",
                {
                    "tenant_id": tenant_id,
                    "sfc": new_chain.to_dict(),
                    "ok": True,
                },
            )
        return result

    @contextmanager
    def _home_locked(self, tenant_id: int, op: str):
        """Hold the home-shard lock of a single-homed ``tenant_id`` and
        yield ``(home, None)``.  Yields ``(None, rejection)`` for an
        unknown tenant (decided locally) and ``(None, None)`` when the
        caller must escalate: the tenant is stitched, or it moved or left
        between routing and locking — a cross-shard op (drain is keyed by
        switch, so the queue does not serialize it against this tenant's
        intents) may re-home or evict it, and mutating through a stale
        home lock would race the real home's worker, so the record is
        revalidated under the lock."""
        with self._dir_lock:
            record = self.tenants.get(tenant_id)
        if record is None:
            with maybe_span(
                self.tracer, f"fabric.{op}", tenant=tenant_id
            ) as span, self.metrics.timer(f"op_latency_s.{op}") as timer:
                rejected = self._reject(
                    tenant_id, op, "unknown-tenant",
                    f"tenant {tenant_id} has no live chain", timer,
                )
                span.set(ok=False)
            self._record_op(rejected)
            yield None, rejected
            return
        if record.stitched:
            yield None, None
            return
        home = record.segments[0].switch
        with self._shard_locks[home]:
            with self._dir_lock:
                record = self.tenants.get(tenant_id)
            moved = (
                record is None
                or record.stitched
                or record.segments[0].switch != home
            )
            yield (None if moved else home), None

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def probe_tenant(self, tenant_id: int) -> bool:
        """End-to-end forwarding check: inject one probe packet per segment
        and require each to execute its segment's *complete* installed rule
        generation, with the segments jointly covering the whole logical
        chain.  Needs the data plane."""
        from repro.controller.install import TENANT_MAP
        from repro.dataplane.packet import Packet

        if not self.with_dataplane:
            raise PlacementError("probe_tenant needs with_dataplane=True")
        record = self.tenants.get(tenant_id)
        if record is None:
            return False
        covered = 0
        for seg in record.segments:
            shard = self.shards[seg.switch]
            assert shard.pipeline is not None and shard.installer is not None
            [result] = shard.pipeline.process_batch(
                [Packet(tenant_id=tenant_id, pass_id=1)], trace=True
            )
            applied = [t for t in result.applied_tables() if t != TENANT_MAP]
            expected = [
                nf.table_name
                for nf in shard.installer.installed[tenant_id].compiled
            ]
            if applied != expected:
                return False
            covered += len(applied)
        return covered == record.sfc.length

    def check_invariant(self) -> list[str]:
        """Audit the whole fabric against a from-scratch recomputation.

        Per shard: the incremental :class:`PipelineState` must be
        bit-identical to :meth:`PipelineState.from_placement` over that
        shard's surviving tenants.  Per link: the incremental load must
        equal the sum over the directory, and the running stitched count
        the directory's.  Plus directory/shard cross-consistency and empty
        drained shards.
        Returns human-readable problem strings (empty = invariant holds);
        any problem snaps the flight recorder so the run-up to the drift is
        preserved alongside the findings.
        """
        problems: list[str] = []
        for name in self.topology.switch_names:
            shard = self.shards[name]
            reference = PipelineState.from_placement(
                shard.placement,
                reserve_physical_block=shard.reserve_physical_block,
            )
            if not np.array_equal(shard.state.entries, reference.entries):
                problems.append(f"{name}: entry matrix drifted")
            if not np.array_equal(shard.state.nf_blocks, reference.nf_blocks):
                problems.append(f"{name}: nf-block matrix drifted")
            if not np.array_equal(shard.state.physical, reference.physical):
                problems.append(f"{name}: physical layout drifted")
            for s in range(shard.base.switch.stages):
                if shard.state.blocks_at_stage(s) != reference.blocks_at_stage(s):
                    problems.append(f"{name}: stage {s} block total drifted")
            if shard.state.backplane_units != reference.backplane_units:
                problems.append(
                    f"{name}: backplane {shard.state.backplane_units} != "
                    f"recomputed {reference.backplane_units} units"
                )
            if shard.state.digest() != reference.digest():
                problems.append(
                    f"{name}: state digest {shard.state.digest()} != "
                    f"recomputed {reference.digest()}"
                )
            expected_tenants = {
                tenant_id
                for tenant_id, record in self.tenants.items()
                if name in record.switches
            }
            if set(shard.tenants) != expected_tenants:
                problems.append(
                    f"{name}: shard tenants {sorted(shard.tenants)} != "
                    f"directory {sorted(expected_tenants)}"
                )
        for tenant_id in sorted(self.tenants):
            for seg in self.tenants[tenant_id].segments:
                shard_record = self.shards[seg.switch].tenants.get(tenant_id)
                if shard_record is None or shard_record.sfc != seg.sfc:
                    problems.append(
                        f"tenant {tenant_id}: segment on {seg.switch} does "
                        f"not match the shard's record"
                    )
        expected_loads = {key: 0 for key in self.links}
        for tenant_id in sorted(self.tenants):
            record = self.tenants[tenant_id]
            for key in record.links:
                expected_loads[key] += record.sfc.bandwidth_units
        for key in sorted(self.links):
            if self.links[key].load_units != expected_loads[key]:
                problems.append(
                    f"link {key}: load {self.links[key].load_units} != "
                    f"recomputed {expected_loads[key]} units "
                    f"(digest {self.links[key].digest()})"
                )
        stitched = sum(1 for record in self.tenants.values() if record.stitched)
        if self._stitched != stitched:
            problems.append(
                f"stitched count {self._stitched} != directory {stitched}"
            )
        for name in sorted(self.drained):
            shard = self.shards[name]
            if shard.tenants or shard.state.entries.sum() != 0:
                problems.append(f"{name}: drained but not empty")
        if problems:
            self.recorder.snap("fabric-invariant-violated", problems=problems)
        return problems
