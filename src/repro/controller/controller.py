"""The tenant-facing SFC control-plane facade (paper §V-E, as a service).

:class:`SfcController` owns the full tenant lifecycle over one switch:

1. **admit** — screen the request through admission control
   (:mod:`repro.controller.admission`), solve a placement for it against the
   live residual resources (the greedy engine's ``Try_placement``), and — when
   a data plane is attached — install the chain's rules through the
   transactional two-phase installer (:mod:`repro.controller.install`).
2. **evict** — release the chain's control-plane resources and
   garbage-collect its data-plane rules.
3. **modify** — swap a live tenant's chain for a new one, make-before-break
   on the data plane (hitless unless the transient double occupancy does not
   fit, in which case the installer degrades to break-before-make and the
   result says so).

Control-plane state and the data plane are kept transactional *together*: a
data-plane rejection rolls the control-plane resource accounting back to its
pre-event snapshot, so the two sides never diverge.

The controller maintains one strict invariant, exercised by the churn test
suite: after any event sequence, its incremental
:class:`~repro.core.state.PipelineState` is **bit-identical** to a
from-scratch recomputation over the surviving placement.  It holds by
construction: every quantity — the block matrices and the backplane load
alike — is an exact integer (bandwidth in the whole units of
:mod:`repro.units`), and every op charges or releases exactly its own
tenant's share, so no accumulation order can make the totals drift.  The
gauges are running totals too; no event walks the live tenants.

Like the paper's incremental updater, drift from the global optimum can be
bounded: :meth:`SfcController.maybe_reconfigure` compares the live placement
against a fresh greedy solve over the surviving population — the drift gap
is the fraction of backplane bandwidth a fresh solve would reclaim — and
adopts the reference once the gap exceeds the configured threshold (an
expensive full reinstall, counted as such in the metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.controller.admission import AdmissionPolicy, check_admission
from repro.controller.install import TransactionalInstaller
from repro.core.greedy import _ensure_all_types, greedy_place, sfc_metric, try_place_chain
from repro.core.placement import NFAssignment, Placement
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import PipelineState
from repro.core.update import merge_churn, rule_churn_by_stage
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import TableEntry
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, physical_table_name
from repro.errors import DataPlaneError, DurabilityError
from repro.nfs.registry import get_nf, install_physical_nf
from repro.telemetry.metrics import MetricsRegistry, Timer
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import Tracer, maybe_span
from repro.units import units_to_gbps

#: ``rule_factory(sfc, position, nf_name) -> rules`` — the concrete table
#: entries carried by one NF of a tenant's chain on the functional data
#: plane.  The *control plane* accounts ``sfc.rules[position]`` entries
#: regardless; the factory only decides what the packet-level mirror runs.
RuleFactory = Callable[[SFC, int, str], tuple[TableEntry, ...]]


def default_rule_factory(sfc: SFC, position: int, nf_name: str) -> tuple[TableEntry, ...]:
    """One catch-all permit rule per NF: enough for the functional mirror to
    observe which tables a packet traverses, without installing the full
    accounting-scale rule set."""
    return (TableEntry(match={}, action="permit", priority=-1),)


@dataclass
class TenantRecord:
    """Control-plane bookkeeping for one live tenant."""

    sfc: SFC
    stages: tuple[int, ...]

    def assignment(self, index: int) -> NFAssignment:
        """The tenant's chain assignment keyed as SFC ``index``."""
        return NFAssignment(sfc_index=index, stages=self.stages)

    def backplane_units(self, stages_per_pass: int) -> int:
        """Backplane units this tenant holds: passes x demand (Eq. 12)."""
        return -(-self.stages[-1] // stages_per_pass) * self.sfc.bandwidth_units


@dataclass
class OpResult:
    """Outcome of one controller operation (admit / evict / modify)."""

    ok: bool
    tenant_id: int
    op: str
    reason: str | None = None
    detail: str = ""
    stages: tuple[int, ...] | None = None
    #: False only when a modify degraded to break-before-make.
    hitless: bool = True
    latency_s: float = 0.0
    #: Rule-entry churn under the shared control-plane accounting
    #: (:func:`repro.core.update.rule_churn_by_stage`).
    rules_added: int = 0
    rules_deleted: int = 0


class SfcController:
    """Tenant lifecycle (admit / evict / modify) over one switch."""

    def __init__(
        self,
        instance: ProblemInstance,
        with_dataplane: bool = True,
        policy: AdmissionPolicy | None = None,
        consolidate: bool = True,
        reserve_physical_block: bool = True,
        reconfigure_threshold: float | None = None,
        rule_factory: RuleFactory | None = None,
        name: str = "switch",
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        fastpath: bool = False,
        fastpath_backend: str = "auto",
    ) -> None:
        """``instance`` supplies the switch, catalog size and recirculation
        budget (its candidate SFCs, if any, are *not* auto-admitted).  With
        ``with_dataplane=False`` the controller runs control-plane only —
        the mode the fig. 11 experiment replays at scale.  ``name`` labels
        this controller's switch — the fabric orchestrator runs one
        controller per fabric switch and keys reports by it.

        ``tracer``/``recorder`` are the optional telemetry hooks: with a
        tracer attached every lifecycle op opens a ``controller.<op>`` span
        whose children cover admission, placement, the two-phase install and
        each ``runtime.write`` batch; a recorder additionally keeps the
        recent state transitions in its ring."""
        self.base = instance
        self.name = name
        self.policy = policy or AdmissionPolicy()
        self.consolidate = consolidate
        self.reserve_physical_block = reserve_physical_block
        self.reconfigure_threshold = reconfigure_threshold
        self.rule_factory = rule_factory or default_rule_factory
        self.state = PipelineState(
            instance,
            consolidate=consolidate,
            reserve_physical_block=reserve_physical_block,
        )
        self.tenants: dict[int, TenantRecord] = {}
        #: Running Eq. (1) objective ``sum T_l * J_l`` over live tenants,
        #: in accounting units (exact, so it never needs a re-sum).
        self._objective_units = 0
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.recorder = recorder
        #: Optional durability sink (duck-typed ``commit_op(controller, op,
        #: data)``): a :class:`~repro.durability.checkpoint.
        #: ControllerDurability` for a standalone controller, or the fabric
        #: coordinator's per-switch :class:`~repro.durability.checkpoint.
        #: ShardWalLogger`.  Set by ``attach()``; every *successful* lifecycle
        #: op is journaled through it after it commits.
        self.durability = None
        self.with_dataplane = with_dataplane
        self.pipeline: SwitchPipeline | None = None
        self.installer: TransactionalInstaller | None = None
        self.fastpath = None
        if with_dataplane:
            self.pipeline = SwitchPipeline(
                instance.switch,
                max_passes=instance.max_recirculations + 1,
                name=name,
            )
            self.installer = TransactionalInstaller(self.pipeline)
            # Cascade the tracer down the install path so one admit yields
            # one causally linked tree: controller -> install -> runtime.write.
            self.installer.tracer = tracer
            self.installer.api.tracer = tracer
            if fastpath:
                # Compiled dataplane fast path: batches execute per-tenant
                # compiled plans; the installer's RuntimeAPI writes feed the
                # engine's precise invalidation layer automatically.
                from repro.fastpath import FastPathEngine

                self.fastpath = FastPathEngine.attach(
                    self.pipeline, backend=fastpath_backend
                )

    # ------------------------------------------------------------------
    @classmethod
    def for_instance(
        cls, instance: ProblemInstance, with_dataplane: bool = True, **kwargs
    ) -> "SfcController":
        """Build a controller sized for ``instance`` (convenience alias of
        the constructor, kept for call-site readability)."""
        return cls(instance, with_dataplane=with_dataplane, **kwargs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def population_instance(self) -> ProblemInstance:
        """The live tenants as a problem instance (sorted by tenant ID) —
        what a from-scratch reference solve sees."""
        ordered = sorted(self.tenants)
        return self.base.with_sfcs([self.tenants[t].sfc for t in ordered])

    @property
    def placement(self) -> Placement:
        """The live placement over :attr:`population_instance`.

        Assignments are keyed in sorted-tenant order, matching
        :attr:`population_instance`; :meth:`PipelineState.from_placement`
        over it is the from-scratch oracle the churn invariant compares
        the incremental state against.
        """
        ordered = sorted(self.tenants)
        assignments = {
            idx: self.tenants[t].assignment(idx) for idx, t in enumerate(ordered)
        }
        return Placement(
            instance=self.population_instance,
            physical=self.state.physical.copy(),
            assignments=assignments,
            consolidate=self.consolidate,
            algorithm="controller",
        )

    def metrics_snapshot(self) -> dict:
        """Current metrics as one plain dict (see :mod:`.metrics`)."""
        return self.metrics.snapshot()

    def can_host(self, sfc: SFC) -> bool:
        """Non-mutating feasibility probe: would :meth:`admit` accept this
        chain right now?  Runs the admission screen and a trial placement,
        then rolls the trial back — no tenant state, metrics, or data-plane
        rules change.  The fabric's stitch planner uses this to screen
        segment/switch candidates before committing any shard."""
        if sfc.tenant_id in self.tenants:
            return False
        if not check_admission(sfc, self.state, self.policy, len(self.tenants)):
            return False
        snap = self.state.snapshot()
        stages = try_place_chain(self.state, sfc, self.base.virtual_stages)
        if stages is None:
            return False
        self.state.restore(snap)
        return True

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _set_record(self, tenant_id: int, record: TenantRecord | None) -> None:
        """Write (or, with ``None``, drop) one tenant record, moving the
        running objective by exactly the difference, then refresh the
        gauges from the running totals."""
        old = self.tenants.get(tenant_id)
        if old is not None:
            self._objective_units -= old.sfc.bandwidth_units * old.sfc.length
        if record is None:
            self.tenants.pop(tenant_id, None)
        else:
            self.tenants[tenant_id] = record
            self._objective_units += record.sfc.bandwidth_units * record.sfc.length
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("tenants").set(len(self.tenants))
        self.metrics.gauge("backplane_gbps").set(self.state.backplane_gbps)
        self.metrics.gauge("objective").set(units_to_gbps(self._objective_units))

    def _release(self, record: TenantRecord) -> None:
        """Return one tenant's rule entries and backplane units."""
        S = self.base.switch.stages
        for j, k in enumerate(record.stages):
            self.state.remove_logical_nf(
                record.sfc.nf_types[j] - 1, (k - 1) % S, record.sfc.rules[j]
            )
        self.state.release_backplane(record.backplane_units(S))

    def _reject(
        self, tenant_id: int, op: str, reason: str, detail: str, timer: Timer
    ) -> OpResult:
        self.metrics.inc("rejected")
        self.metrics.inc(f"rejected.{reason}")
        return OpResult(
            ok=False,
            tenant_id=tenant_id,
            op=op,
            reason=reason,
            detail=detail,
            latency_s=timer.elapsed_s,
        )

    def _record_op(self, result: OpResult) -> None:
        """Log one lifecycle outcome as a flight-recorder state transition."""
        if self.recorder is not None:
            self.recorder.record_state(
                f"controller.{result.op}",
                switch=self.name,
                tenant=result.tenant_id,
                ok=result.ok,
                reason=result.reason,
            )

    def _commit_durable(self, op: str, result: OpResult, data: dict) -> None:
        """Journal one *successful* lifecycle op to the attached durability
        sink.  The record carries everything replay needs to re-drive the op
        (the chain, the tenant) plus the post-op state digest, which gives
        recovery a per-LSN oracle to verify bit-identical reconstruction
        against.  Failed ops are not journaled — they did not change state."""
        if self.durability is None or not result.ok:
            return
        payload = dict(data)
        payload["tenant_id"] = result.tenant_id
        if result.stages is not None:
            payload["stages"] = list(result.stages)
        payload["digest"] = self.state.digest()
        self.durability.commit_op(self, op, payload)

    def _logical(self, sfc: SFC) -> LogicalSFC:
        """Lower a control-plane SFC to the data plane's logical form, with
        concrete rules from the controller's rule factory."""
        nfs = []
        for j, type_id in enumerate(sfc.nf_types):
            name = get_nf(type_id).name
            nfs.append(LogicalNF(nf_name=name, rules=self.rule_factory(sfc, j, name)))
        return LogicalSFC(tenant_id=sfc.tenant_id, nfs=tuple(nfs))

    def _ensure_physical(self, prev_physical, created: list[tuple[int, str]]) -> None:
        """Install on the data plane any physical NF the control plane just
        added (``state.physical`` vs. the pre-event snapshot), recording the
        creations so a failed event can undo exactly them."""
        assert self.pipeline is not None
        for i in range(self.base.num_types):
            for s in range(self.base.switch.stages):
                if not self.state.physical[i, s] or prev_physical[i, s]:
                    continue
                name = physical_table_name(get_nf(i + 1).name, s)
                stage = self.pipeline.stage(s)
                try:
                    stage.table(name)
                    continue  # already present (e.g. left over by a reconfig)
                except DataPlaneError:
                    pass
                install_physical_nf(self.pipeline, i + 1, s)
                created.append((s, name))

    def _undo_physical(self, created: list[tuple[int, str]]) -> None:
        assert self.pipeline is not None
        for s, name in reversed(created):
            self.pipeline.stage(s).remove_table(name)

    def _sweep_stale_tables(self, keep_physical) -> None:
        """Remove data-plane physical tables that the adopted layout no
        longer uses *and* that hold no rules, returning their SRAM blocks.
        Only meaningful during reconfiguration — the paper's "reboot"
        moment; in steady state physical NFs are static."""
        assert self.pipeline is not None
        for i in range(self.base.num_types):
            nf_name = get_nf(i + 1).name
            for s in range(self.base.switch.stages):
                if keep_physical[i, s]:
                    continue
                name = physical_table_name(nf_name, s)
                stage = self.pipeline.stage(s)
                try:
                    table = stage.table(name)
                except DataPlaneError:
                    continue
                if table.num_entries == 0:
                    stage.remove_table(name)

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------
    def admit(self, sfc: SFC) -> OpResult:
        """Admit one tenant chain: admission screen, placement against the
        residual resources, then the two-phase data-plane install.  Any
        data-plane rejection rolls the control plane back to its pre-event
        snapshot."""
        with maybe_span(
            self.tracer, "controller.admit", switch=self.name, tenant=sfc.tenant_id
        ) as span, self.metrics.timer("op_latency_s.admit") as timer:
            result = self._admit(sfc, timer)
            span.set(ok=result.ok, reason=result.reason)
        self._record_op(result)
        self._commit_durable("admit", result, {"sfc": sfc.to_dict()})
        return result

    def _admit(self, sfc: SFC, timer: Timer) -> OpResult:
        tenant_id = sfc.tenant_id
        if tenant_id in self.tenants:
            return self._reject(
                tenant_id, "admit", "duplicate-tenant",
                f"tenant {tenant_id} already has a live chain", timer,
            )
        placed = self._place(
            sfc, len(self.tenants), "admit", None, timer,
            TransactionalInstaller.install,
        )
        if isinstance(placed, OpResult):
            return placed
        stages, _hitless = placed
        self._set_record(tenant_id, TenantRecord(sfc=sfc, stages=stages))
        added = sum(
            rule_churn_by_stage(sfc, stages, self.base.switch.stages).values()
        )
        self.metrics.inc("admitted")
        self.metrics.inc("rules_inserted", added)
        return OpResult(
            ok=True,
            tenant_id=tenant_id,
            op="admit",
            stages=stages,
            rules_added=added,
            latency_s=timer.elapsed_s,
        )

    # ------------------------------------------------------------------
    def evict(self, tenant_id: int) -> OpResult:
        """Tenant departure: release control-plane resources, then detach
        and garbage-collect the data-plane rules (two-phase)."""
        with maybe_span(
            self.tracer, "controller.evict", switch=self.name, tenant=tenant_id
        ) as span, self.metrics.timer("op_latency_s.evict") as timer:
            result = self._evict(tenant_id, timer)
            span.set(ok=result.ok, reason=result.reason)
        self._record_op(result)
        self._commit_durable("evict", result, {})
        return result

    def _evict(self, tenant_id: int, timer: Timer) -> OpResult:
        record = self.tenants.get(tenant_id)
        if record is None:
            return self._reject(
                tenant_id, "evict", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        S = self.base.switch.stages
        self._release(record)
        self._set_record(tenant_id, None)
        if self.with_dataplane:
            assert self.installer is not None
            self.installer.evict(tenant_id)
        deleted = sum(rule_churn_by_stage(record.sfc, record.stages, S).values())
        self.metrics.inc("evicted")
        self.metrics.inc("rules_deleted", deleted)
        return OpResult(
            ok=True,
            tenant_id=tenant_id,
            op="evict",
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    # ------------------------------------------------------------------
    def modify(self, tenant_id: int, new_chain: SFC) -> OpResult:
        """Swap a live tenant's chain for ``new_chain`` (same tenant ID).

        Control plane: the old chain's resources are released, the new chain
        is screened and placed against the residual; any failure restores
        the pre-event snapshot and the old chain stays live.  Data plane:
        make-before-break via :meth:`TransactionalInstaller.replace`
        (``hitless=False`` on the result when it had to degrade)."""
        with maybe_span(
            self.tracer, "controller.modify", switch=self.name, tenant=tenant_id
        ) as span, self.metrics.timer("op_latency_s.modify") as timer:
            result = self._modify(tenant_id, new_chain, timer)
            span.set(ok=result.ok, reason=result.reason, hitless=result.hitless)
        self._record_op(result)
        self._commit_durable("modify", result, {"sfc": new_chain.to_dict()})
        return result

    def _modify(self, tenant_id: int, new_chain: SFC, timer: Timer) -> OpResult:
        record = self.tenants.get(tenant_id)
        if record is None:
            return self._reject(
                tenant_id, "modify", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        new_sfc = replace(new_chain, tenant_id=tenant_id)
        snap = self.state.snapshot()
        S = self.base.switch.stages
        self._release(record)
        placed = self._place(
            new_sfc, len(self.tenants) - 1, "modify", snap, timer,
            TransactionalInstaller.replace,
        )
        if isinstance(placed, OpResult):
            return placed
        stages, hitless = placed
        self._set_record(tenant_id, TenantRecord(sfc=new_sfc, stages=stages))
        added = sum(rule_churn_by_stage(new_sfc, stages, S).values())
        deleted = sum(rule_churn_by_stage(record.sfc, record.stages, S).values())
        self.metrics.inc("modified")
        self.metrics.inc("rules_inserted", added)
        self.metrics.inc("rules_deleted", deleted)
        if not hitless:
            self.metrics.inc("updates_break_before_make")
        return OpResult(
            ok=True,
            tenant_id=tenant_id,
            op="modify",
            stages=stages,
            hitless=hitless,
            rules_added=added,
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    def _place(
        self, sfc: SFC, live: int, op: str, snap, timer: Timer, step
    ) -> tuple[tuple[int, ...], bool] | OpResult:
        """Screen ``sfc`` (beside ``live`` other tenants), place it against
        the residual resources, and put it on the data plane with ``step``
        (``TransactionalInstaller.install`` or ``.replace``).  Returns
        ``(stages, hitless)``, or the rejection after rolling the state
        back to ``snap`` — the pre-event snapshot, or ``None`` to take one
        once the screen passes (nothing has changed before it)."""
        tenant_id = sfc.tenant_id
        with maybe_span(self.tracer, "controller.admission", tenant=tenant_id) as sp:
            decision = check_admission(sfc, self.state, self.policy, live)
            sp.set(ok=bool(decision))
        if not decision:
            if snap is not None:
                self.state.restore(snap)
            return self._reject(
                tenant_id, op, decision.reason, decision.detail, timer
            )
        if snap is None:
            snap = self.state.snapshot()
        with maybe_span(self.tracer, "controller.placement", tenant=tenant_id) as sp:
            stages = try_place_chain(self.state, sfc, self.base.virtual_stages)
            sp.set(placed=stages is not None)
        if stages is None:
            self.state.restore(snap)
            return self._reject(
                tenant_id, op, "no-feasible-placement",
                "admission passed but no placement fits the residual resources",
                timer,
            )
        hitless = True
        if self.with_dataplane:
            assert self.installer is not None
            created: list[tuple[int, str]] = []
            try:
                self._ensure_physical(snap.physical, created)
                outcome = step(self.installer, self._logical(sfc), stages)
                hitless = outcome.hitless
            except DataPlaneError as exc:
                self._undo_physical(created)
                self.state.restore(snap)
                self.metrics.inc("installs_rolled_back")
                return self._reject(
                    tenant_id, op, "dataplane-rejected", str(exc), timer
                )
        return stages, hitless

    # ------------------------------------------------------------------
    # Batch conveniences
    # ------------------------------------------------------------------
    def admit_many(self, sfcs: Iterable[SFC]) -> list[OpResult]:
        """Admit a batch best-Equation-(13)-metric first — the same order as
        the greedy solver, so a batch admit over an empty controller matches
        :func:`~repro.core.greedy.greedy_place` chain for chain."""
        ordered = sorted(
            sfcs,
            key=lambda sfc: (-sfc_metric(sfc), -sfc.bandwidth_gbps, sfc.tenant_id),
        )
        return [self.admit(sfc) for sfc in ordered]

    def install_catalog(self) -> None:
        """Install any catalog NF type still absent from the pipeline
        (constraint (4)), mirroring the greedy solver's post-placement step,
        and mirror the new physical tables onto the data plane."""
        prev = self.state.physical.copy()
        _ensure_all_types(self.state)
        if self.with_dataplane:
            created: list[tuple[int, str]] = []
            self._ensure_physical(prev, created)
        if self.durability is not None:
            self.durability.commit_op(
                self, "catalog", {"digest": self.state.digest()}
            )

    # ------------------------------------------------------------------
    # Checkpoint restore
    # ------------------------------------------------------------------
    def restore_tenant(self, sfc: SFC, stages: tuple[int, ...]) -> None:
        """Re-install a tenant at its *recorded* stages — the checkpoint
        restore path.  Admission and placement are bypassed on purpose: a
        tenant's historical stages depend on the full arrival/departure
        history, so re-placing survivors would not reproduce them.  The
        restore is not journaled (it reconstructs already-journaled state).
        """
        if sfc.tenant_id in self.tenants:
            raise DurabilityError(
                f"tenant {sfc.tenant_id} already live; restore_tenant is a "
                f"fresh-state operation"
            )
        stages = tuple(int(k) for k in stages)
        if len(stages) != sfc.length:
            raise DurabilityError(
                f"tenant {sfc.tenant_id}: {sfc.length} NFs but "
                f"{len(stages)} recorded stages"
            )
        record = TenantRecord(sfc=sfc, stages=stages)
        prev_physical = self.state.physical.copy()
        S = self.base.switch.stages
        for j, k in enumerate(stages):
            self.state.add_logical_nf(
                sfc.nf_types[j] - 1, (k - 1) % S, sfc.rules[j]
            )
        self.state.add_backplane(record.backplane_units(S))
        if self.with_dataplane:
            assert self.installer is not None
            created: list[tuple[int, str]] = []
            self._ensure_physical(prev_physical, created)
            self.installer.install(self._logical(sfc), stages)
        self._set_record(sfc.tenant_id, record)

    # ------------------------------------------------------------------
    # Drift-bounded reconfiguration
    # ------------------------------------------------------------------
    def maybe_reconfigure(self) -> bool:
        """Adopt a fresh reference placement when incremental churn has
        fragmented the pipeline badly enough.

        Every live tenant is placed, so (unlike the candidate-pool updater
        of §V-E) the objective cannot drift — what drifts is the *cost* of
        hosting the same tenants: chains folded onto late virtual stages
        burn extra recirculation passes.  The drift gap is therefore the
        fraction of backplane bandwidth a from-scratch greedy solve over the
        surviving population would reclaim; past the configured threshold
        the controller adopts the reference wholesale (data plane:
        make-before-break replace per tenant — extensive rule churn, counted
        as such).  A reference that fails to place every live tenant is
        never adopted.  Adoption doubles as the paper's "reboot" moment on
        the data plane: physical tables the new layout abandons are swept
        once empty (occupied ones cannot be reclaimed without dropping a
        tenant and stay installed).
        """
        if self.reconfigure_threshold is None or not self.tenants:
            return False
        population = self.population_instance
        reference = greedy_place(
            population,
            consolidate=self.consolidate,
            reserve_physical_block=self.reserve_physical_block,
            require_all_types=False,
        )
        if len(reference.assignments) < len(self.tenants):
            return False  # never drop a live tenant to chase efficiency
        current = self.state.backplane_gbps
        if current <= 0:
            return False
        gap = 1.0 - reference.backplane_gbps / current
        if gap <= self.reconfigure_threshold:
            return False

        ordered = sorted(self.tenants)
        added: dict[int, int] = {}
        deleted: dict[int, int] = {}
        S = self.base.switch.stages
        survivors: dict[int, TenantRecord] = {}
        for idx, t in enumerate(ordered):
            record = self.tenants[t]
            merge_churn(deleted, rule_churn_by_stage(record.sfc, record.stages, S))
            asg = reference.assignments[idx]
            merge_churn(added, rule_churn_by_stage(record.sfc, asg.stages, S))
            survivors[t] = TenantRecord(sfc=record.sfc, stages=asg.stages)

        if self.with_dataplane:
            assert self.installer is not None
            created: list[tuple[int, str]] = []
            prev = self.state.physical.copy()
            # Reconfiguration is the "reboot" moment: sweep empty tables the
            # new layout abandons so their blocks are available, then mirror
            # the new layout and re-place every survivor make-before-break.
            self._sweep_stale_tables(reference.physical)
            # Adopt the reference layout before mirroring, so _ensure_physical
            # sees the new (type, stage) pairs.
            self.state.physical = reference.physical.copy()
            self._ensure_physical(prev, created)
            for t, record in survivors.items():
                self.installer.replace(self._logical(record.sfc), record.stages)
            self._sweep_stale_tables(reference.physical)

        # Same tenants, same chains: the running objective is unchanged.
        self.tenants = survivors
        self.state = PipelineState.from_placement(
            reference, reserve_physical_block=self.reserve_physical_block
        )
        self.metrics.inc("reconfigurations")
        self.metrics.inc("rules_inserted", sum(added.values()))
        self.metrics.inc("rules_deleted", sum(deleted.values()))
        self._refresh_gauges()
        if self.durability is not None:
            self.durability.commit_op(
                self, "reconfigure", {"digest": self.state.digest()}
            )
        return True
