"""Capacity-planning scale mode: a slim columnar fabric for 10^5-10^6
tenants.

A full :class:`~repro.fabric.orchestrator.FabricOrchestrator` keeps rich
per-tenant state (SFC objects, per-shard directories, flight-recorder
entries, dataplane mirrors) — perfect for correctness work, far too heavy
for million-tenant capacity sweeps.  :class:`ScaleFabric` keeps only what
placement *decisions* need, in numpy columns:

* per switch: free blocks per stage (int), installed-physical-NF bitmap,
  committed backplane in integer accounting units (int64);
* per tenant: home-switch index, per-stage block charge, recirculation
  passes, bandwidth units — ~30 bytes/tenant at S=4.

Its admit path replicates the greedy walk of
:func:`repro.core.greedy.try_place_chain` **operation for operation**
(same scan order, same lookahead bound, same physical-NF preference, same
exact integer backplane check, bandwidth converted to units by the same
:func:`~repro.units.gbps_to_units` as :class:`~repro.core.spec.SFC`)
under the accounting mode
``consolidate=False, reserve_physical_block=False`` — in that mode a
logical NF's block charge is exactly ``blocks_for_entries(rules)``
independent of co-located NFs, so per-stage *totals* suffice and per-(type,
stage) entry matrices can be dropped.  Routing is the registered
``modulo`` partitioner over the same lexicographically sorted switch
names the real topology uses.  The differential test in
``tests/scenarios/test_scale.py`` pins the decision-equivalence down
against a real fabric, admit by admit.

Lazy/aggregated accounting: the fabric never materializes per-tenant SFC
objects during a fill (:func:`synthesize_fill` draws the whole workload
into flat arrays), and :meth:`ScaleFabric.check` audits the aggregate
state — per-stage block totals and backplane units recomputed exactly
from live tenants — the scale-mode analogue of the fabric bit-identity
invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import SFC, SwitchSpec
from repro.errors import ScenarioError
from repro.rng import make_rng
from repro.traffic.distributions import lognormal_bandwidth
from repro.traffic.workload import WorkloadConfig
from repro.units import UNITS_PER_GBPS, gbps_to_units, units_to_gbps


@dataclass
class FillArrays:
    """A whole fill workload as flat arrays (no per-tenant objects):
    ``types``/``rules`` are ``(n, max_len)`` with row ``i`` valid up to
    ``lengths[i]``; ``bandwidths`` (Gbps) lie on the accounting-unit grid,
    exactly as an :class:`SFC` built from them would normalize them."""

    lengths: np.ndarray
    types: np.ndarray
    rules: np.ndarray
    bandwidths: np.ndarray

    @property
    def num_tenants(self) -> int:
        """Rows in the workload."""
        return len(self.lengths)

    def sfc(self, i: int) -> SFC:
        """Row ``i`` materialized as a real :class:`SFC` (differential
        tests replay the same workload through a real fabric)."""
        j = int(self.lengths[i])
        return SFC(
            name=f"tenant-{i}",
            tenant_id=i,
            nf_types=tuple(int(t) for t in self.types[i, :j]),
            rules=tuple(int(r) for r in self.rules[i, :j]),
            bandwidth_gbps=float(self.bandwidths[i]),
        )


def synthesize_fill(
    workload: WorkloadConfig,
    num_tenants: int,
    rng: int | np.random.Generator | None = None,
) -> FillArrays:
    """Draw ``num_tenants`` chains as flat arrays — the vectorized twin of
    :func:`~repro.traffic.workload.make_sfcs` (same recipe: uniform
    lengths, types sampled without replacement, uniform rules, long-tail
    bandwidth rounded to whole accounting units)."""
    rng = make_rng(rng)
    lo = workload.avg_chain_length - workload.chain_length_spread
    hi = workload.avg_chain_length + workload.chain_length_spread
    lengths = rng.integers(lo, hi + 1, size=num_tenants).astype(np.int16)
    # Types without replacement, vectorized: each row's types are the
    # first `length` columns of a random permutation of the catalog.
    keys = rng.random((num_tenants, workload.num_types))
    types = (np.argsort(keys, axis=1)[:, :hi] + 1).astype(np.int16)
    rules = rng.integers(
        workload.rules_min, workload.rules_max + 1, size=(num_tenants, hi)
    ).astype(np.int32)
    bandwidths = lognormal_bandwidth(
        rng,
        num_tenants,
        mean_gbps=workload.mean_bandwidth_gbps,
        sigma=workload.bandwidth_sigma,
        min_gbps=workload.min_bandwidth_gbps,
        max_gbps=workload.max_bandwidth_gbps,
    )
    bandwidths = np.rint(bandwidths * UNITS_PER_GBPS) / UNITS_PER_GBPS
    return FillArrays(
        lengths=lengths, types=types, rules=rules, bandwidths=bandwidths
    )


class ScaleFabric:
    """A slim N-switch fabric holding per-tenant state in numpy columns.

    Mirrors a real fabric built as ``FabricOrchestrator(full-mesh-less
    topology, consolidate=False, reserve_physical_block=False,
    policy=AdmissionPolicy(check_memory=False, check_backplane=False),
    partitioner=ModuloPartitioner(), with_dataplane=False)`` decision for
    decision, without stitching (capacity planning treats the stitch path
    as spillover's last resort, not the common case)."""

    def __init__(
        self,
        num_switches: int,
        switch: SwitchSpec | None = None,
        max_recirculations: int = 1,
        num_types: int = 6,
        capacity_hint: int = 1024,
    ) -> None:
        if num_switches < 1:
            raise ScenarioError("a fabric needs at least one switch")
        self.switch = switch if switch is not None else SwitchSpec()
        self.num_types = num_types
        self.max_recirculations = max_recirculations
        #: Lexicographically sorted names — the same canonical order
        #: :attr:`FabricTopology.switch_names` yields ("sw10" < "sw2").
        self.switch_names: list[str] = sorted(
            f"sw{i}" for i in range(num_switches)
        )
        n = num_switches
        S = self.switch.stages
        self.S = S
        self.K = S * (max_recirculations + 1)
        self._epb = self.switch.entries_per_block
        self._capacity = self.switch.capacity_units
        #: Free SRAM blocks per (switch, stage).
        self.stage_free = np.full((n, S), self.switch.blocks_per_stage, np.int64)
        #: Installed physical NFs per (switch, type, stage).
        self.physical = np.zeros((n, num_types, S), bool)
        #: Committed backplane units per switch.
        self.used_units = np.zeros(n, np.int64)
        # Per-tenant columns, grown geometrically; switch -1 = not live.
        cap = max(16, capacity_hint)
        self._t_switch = np.full(cap, -1, np.int32)
        self._t_blocks = np.zeros((cap, S), np.uint16)
        self._t_passes = np.zeros(cap, np.uint8)
        self._t_units = np.zeros(cap, np.int64)
        self.live_tenants = 0
        self.admitted = 0
        self.rejected = 0
        self.spillovers = 0

    # ------------------------------------------------------------------
    def _grow(self, tenant_id: int) -> None:
        cap = len(self._t_switch)
        if tenant_id < cap:
            return
        new = max(cap * 2, tenant_id + 1)
        for name, fill in (
            ("_t_switch", -1),
            ("_t_blocks", 0),
            ("_t_passes", 0),
            ("_t_units", 0),
        ):
            old = getattr(self, name)
            shape = (new,) + old.shape[1:]
            grown = np.full(shape, fill, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def _blocks_for(self, rules: int) -> int:
        return -(-int(rules) // self._epb)

    def _try_place(
        self, sw: int, types, rules, units: int
    ) -> tuple[list[int], int] | None:
        """The greedy walk of :func:`try_place_chain`, verbatim: nearest
        next stage with the physical NF installed first, nearest next
        installable stage second, suffix-lookahead bound, rollback on
        failure, the same exact Eq. 12 backplane check."""
        S, K = self.S, self.K
        free = self.stage_free[sw]
        phys = self.physical[sw]
        J = len(types)
        chosen_ks: list[int] = []
        undo: list[tuple[int, int, int, bool]] = []
        prev_k = 0
        failed = False
        for j in range(J):
            i = int(types[j]) - 1
            need = self._blocks_for(int(rules[j]))
            last_usable = K - (J - 1 - j)
            chosen = None
            for k in range(prev_k + 1, last_usable + 1):
                s = (k - 1) % S
                if phys[i, s] and need <= free[s]:
                    chosen = k
                    break
            if chosen is None:
                for k in range(prev_k + 1, last_usable + 1):
                    s = (k - 1) % S
                    if not phys[i, s] and need <= free[s]:
                        chosen = k
                        break
            if chosen is None:
                failed = True
                break
            s = (chosen - 1) % S
            undo.append((s, need, i, bool(phys[i, s])))
            free[s] -= need
            phys[i, s] = True
            chosen_ks.append(chosen)
            prev_k = chosen
        passes = 0
        if not failed:
            passes = -(-chosen_ks[-1] // S)
            if self.used_units[sw] + passes * units > self._capacity:
                failed = True
        if failed:
            for s, need, i, was in reversed(undo):
                free[s] += need
                phys[i, s] = was
            return None
        return chosen_ks, passes

    # ------------------------------------------------------------------
    def admit(
        self, tenant_id: int, types, rules, bandwidth_gbps: float
    ) -> tuple[bool, int, str | None]:
        """Admit one chain: modulo-preferred switch first, spillover in
        ring order.  Returns ``(ok, spillover_rank, reject_reason)``."""
        units = gbps_to_units(bandwidth_gbps)
        self._grow(tenant_id)
        if self._t_switch[tenant_id] >= 0:
            self.rejected += 1
            return False, 0, "duplicate-tenant"
        if len(types) > self.K:
            self.rejected += 1
            return False, 0, "chain-too-long"
        if max(int(t) for t in types) > self.num_types:
            self.rejected += 1
            return False, 0, "unknown-nf-type"
        n = len(self.switch_names)
        start = tenant_id % n
        for rank in range(n):
            sw = (start + rank) % n
            placed = self._try_place(sw, types, rules, units)
            if placed is None:
                continue
            chosen_ks, passes = placed
            self.used_units[sw] += passes * units
            row_blocks = self._t_blocks[tenant_id]
            row_blocks[:] = 0
            for j, k in enumerate(chosen_ks):
                row_blocks[(k - 1) % self.S] += self._blocks_for(int(rules[j]))
            self._t_switch[tenant_id] = sw
            self._t_passes[tenant_id] = passes
            self._t_units[tenant_id] = units
            self.live_tenants += 1
            self.admitted += 1
            if rank:
                self.spillovers += 1
            return True, rank, None
        self.rejected += 1
        return False, 0, "no-feasible-placement"

    def evict(self, tenant_id: int) -> bool:
        """Tenant departure: return its blocks and backplane share.  False
        for tenants that are not live."""
        if tenant_id >= len(self._t_switch) or self._t_switch[tenant_id] < 0:
            return False
        sw = int(self._t_switch[tenant_id])
        self.stage_free[sw] += self._t_blocks[tenant_id].astype(np.int64)
        self.used_units[sw] -= int(self._t_passes[tenant_id]) * int(
            self._t_units[tenant_id]
        )
        self._t_switch[tenant_id] = -1
        self._t_blocks[tenant_id] = 0
        self.live_tenants -= 1
        return True

    # ------------------------------------------------------------------
    def check(self) -> list[str]:
        """Aggregated invariant audit: per-stage free-block totals and
        backplane units must equal an exact integer recomputation over live
        tenants, and the live counter the column scan.  Empty list = state
        is consistent."""
        problems: list[str] = []
        n = len(self.switch_names)
        live = self._t_switch >= 0
        expected_free = np.full(
            (n, self.S), self.switch.blocks_per_stage, np.int64
        )
        expected_units = np.zeros(n, np.int64)
        for row in np.flatnonzero(live):
            sw = int(self._t_switch[row])
            expected_free[sw] -= self._t_blocks[row]
            expected_units[sw] += int(self._t_passes[row]) * int(self._t_units[row])
        if not np.array_equal(expected_free, self.stage_free):
            bad = np.argwhere(expected_free != self.stage_free)
            problems.append(
                f"stage free-block totals drifted at (switch, stage) "
                f"{bad[:4].tolist()}"
            )
        if not np.array_equal(expected_units, self.used_units):
            bad = np.flatnonzero(expected_units != self.used_units)
            problems.append(f"backplane units drifted on switches {bad.tolist()}")
        if int(live.sum()) != self.live_tenants:
            problems.append(
                f"live counter {self.live_tenants} != column scan "
                f"{int(live.sum())}"
            )
        if (self.stage_free < 0).any():
            problems.append("negative free blocks")
        return problems

    def summary(self) -> dict:
        """Aggregate occupancy: live tenants, per-switch backplane and
        free-block totals, admission counters."""
        return {
            "switches": len(self.switch_names),
            "live_tenants": self.live_tenants,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "spillovers": self.spillovers,
            "backplane_gbps": [units_to_gbps(int(u)) for u in self.used_units],
            "free_blocks": self.stage_free.sum(axis=1).tolist(),
        }


@dataclass
class FillReport:
    """Outcome of one capacity fill: counters plus successful-admit
    latencies (seconds)."""

    switches: int
    offered: int
    admitted: int = 0
    rejected: int = 0
    spillovers: int = 0
    evicted: int = 0
    wall_seconds: float = 0.0
    latencies_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    check_problems: list[str] = field(default_factory=list)

    @property
    def admission_rate(self) -> float:
        """Admitted / offered (0.0 on an empty fill)."""
        return self.admitted / self.offered if self.offered else 0.0

    @property
    def spillover_rate(self) -> float:
        """Off-preferred-switch admits / offered (0.0 on an empty fill)."""
        return self.spillovers / self.offered if self.offered else 0.0

    def latency_percentile(self, q: float) -> float | None:
        """``q``-th percentile of successful-admit latency in seconds —
        explicit ``None`` when nothing was admitted (the PR-3 NaN-free
        convention)."""
        if len(self.latencies_s) == 0:
            return None
        return float(np.percentile(self.latencies_s, q))

    def summary(self) -> dict:
        """The flat numbers ``bench_scale.py`` serializes per fleet size."""
        p50 = self.latency_percentile(50)
        p99 = self.latency_percentile(99)
        return {
            "switches": self.switches,
            "offered_tenants": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "spillovers": self.spillovers,
            "admission_rate": self.admission_rate,
            "spillover_rate": self.spillover_rate,
            "admit_p50_us": None if p50 is None else p50 * 1e6,
            "admit_p99_us": None if p99 is None else p99 * 1e6,
            "tenants_per_sec": (
                self.offered / self.wall_seconds if self.wall_seconds > 0 else 0.0
            ),
            "wall_s": self.wall_seconds,
            "check_ok": not self.check_problems,
        }


def run_fill(
    fabric: ScaleFabric,
    workload: FillArrays,
    churn_fraction: float = 0.0,
    rng: int | np.random.Generator | None = None,
    check: bool = True,
) -> FillReport:
    """Offer every workload row to ``fabric`` in tenant-id order, timing
    each admit.  With ``churn_fraction`` > 0, each admitted tenant is
    followed with that probability by the eviction of a uniformly chosen
    earlier live tenant — steady-state churn rather than a pure fill.
    Ends with an aggregate :meth:`ScaleFabric.check` audit."""
    if not 0.0 <= churn_fraction <= 1.0:
        raise ScenarioError("churn_fraction must be in [0, 1]")
    rng = make_rng(rng)
    n = workload.num_tenants
    report = FillReport(switches=len(fabric.switch_names), offered=n)
    latencies = np.zeros(n, np.float64)
    n_lat = 0
    churn_coins = (
        rng.random(size=n) < churn_fraction if churn_fraction > 0 else None
    )
    live: list[int] = []
    perf = time.perf_counter
    start_wall = perf()
    for i in range(n):
        j = int(workload.lengths[i])
        types = workload.types[i, :j]
        rules = workload.rules[i, :j]
        t0 = perf()
        ok, rank, _reason = fabric.admit(
            i, types, rules, float(workload.bandwidths[i])
        )
        t1 = perf()
        if ok:
            latencies[n_lat] = t1 - t0
            n_lat += 1
            report.admitted += 1
            if rank:
                report.spillovers += 1
            live.append(i)
        else:
            report.rejected += 1
        if churn_coins is not None and ok and churn_coins[i] and live:
            victim = live.pop(int(rng.integers(0, len(live))))
            if fabric.evict(victim):
                report.evicted += 1
    report.wall_seconds = perf() - start_wall
    report.latencies_s = latencies[:n_lat]
    if check:
        report.check_problems = fabric.check()
    return report


__all__ = [
    "FillArrays",
    "FillReport",
    "ScaleFabric",
    "run_fill",
    "synthesize_fill",
]
