"""Tenant → switch partitioning strategies.

A partitioner does not *decide* where a tenant lands — it produces a
**preference order** over the fabric's active switches, and the orchestrator
walks that order with per-switch admission as the fallback: if the
preferred shard rejects (memory, backplane, chain length), the next-best
shard is tried and the spillover is recorded.  Two strategies ship:

* :class:`ConsistentHashPartitioner` — a classic consistent-hash ring with
  virtual nodes.  Placement is a pure function of ``(tenant_id, active
  switch set)``: sticky under churn, minimally disturbed when a switch is
  drained (only that switch's arc re-homes), and needs no load feedback.
  Hashes are ``blake2b``-based so the order is stable across processes
  (Python's builtin ``hash`` is seed-randomized).
* :class:`LeastBackplanePartitioner` — load-aware: prefers the shard with
  the lowest backplane *utilization fraction* (ties broken by name), which
  levels recirculation load across heterogeneous switches at the price of
  a non-sticky mapping.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import TYPE_CHECKING, Protocol

from repro.core.spec import SFC
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (orchestrator imports us)
    from repro.fabric.orchestrator import FabricOrchestrator


def _stable_hash(key: str) -> int:
    """A process-stable 64-bit hash (builtin ``hash`` is seed-randomized)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class Partitioner(Protocol):
    """Strategy interface: a preference order over active switches."""

    def order(self, sfc: SFC, fabric: "FabricOrchestrator") -> list[str]:
        """Active switch names, most-preferred first, for hosting ``sfc``."""
        ...  # pragma: no cover


class ConsistentHashPartitioner:
    """Hash-ring preference order with ``replicas`` virtual nodes per
    switch.  Walking the ring clockwise from the tenant's hash yields every
    active switch exactly once — the full admission-fallback order, not
    just the owner."""

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise PlacementError(f"need >= 1 virtual node, got {replicas}")
        self.replicas = replicas
        self._ring_for: tuple[str, ...] = ()
        self._ring: list[tuple[int, str]] = []

    def _ring_over(self, names: tuple[str, ...]) -> list[tuple[int, str]]:
        if names != self._ring_for:
            points = [
                (_stable_hash(f"{name}#{r}"), name)
                for name in names
                for r in range(self.replicas)
            ]
            points.sort()
            # Ring before key: concurrent routers (the front end calls
            # ``order`` outside any fabric lock) must never see the new
            # cache key paired with the old ring.
            self._ring = points
            self._ring_for = names
        return self._ring

    def order(self, sfc: SFC, fabric: "FabricOrchestrator") -> list[str]:
        """Ring walk from the tenant's hash: every active switch once,
        most-preferred first."""
        names = tuple(fabric.active_switches)
        if not names:
            return []
        ring = self._ring_over(names)
        start = bisect.bisect_right(ring, (_stable_hash(f"tenant-{sfc.tenant_id}"), ""))
        out: list[str] = []
        seen: set[str] = set()
        for i in range(len(ring)):
            name = ring[(start + i) % len(ring)][1]
            if name not in seen:
                seen.add(name)
                out.append(name)
                if len(out) == len(names):
                    break
        return out


class LeastBackplanePartitioner:
    """Load-aware preference order: lowest backplane utilization fraction
    first (Eq. 12 load over capacity), names as the deterministic
    tie-break."""

    def order(self, sfc: SFC, fabric: "FabricOrchestrator") -> list[str]:
        """Active switches sorted by ascending backplane utilization."""
        def utilization(name: str) -> float:
            shard = fabric.shards[name]
            return (
                shard.state.backplane_units / shard.base.switch.capacity_units
            )

        return sorted(fabric.active_switches, key=lambda n: (utilization(n), n))


class ModuloPartitioner:
    """Round-robin-by-id preference order: the tenant's home shard is
    ``active[tenant_id % N]`` and spillover walks the remaining active
    switches in ring order.  The order is a pure O(N) function of
    ``(tenant_id, active switch set)`` with no hashing and no per-switch
    load reads — the strategy the million-tenant scale harness
    (:mod:`repro.scenarios.scale`) mirrors exactly, so fabric-vs-scale
    differential tests can compare placement decisions one to one."""

    def order(self, sfc: SFC, fabric: "FabricOrchestrator") -> list[str]:
        """Active switches starting at ``tenant_id % N``, ring order."""
        names = fabric.active_switches
        if not names:
            return []
        start = sfc.tenant_id % len(names)
        return names[start:] + names[:start]


#: Registry for the CLI / benchmarks (``--partitioner`` choices).
PARTITIONERS = {
    "hash": ConsistentHashPartitioner,
    "least-backplane": LeastBackplanePartitioner,
    "modulo": ModuloPartitioner,
}


def make_partitioner(name: str) -> Partitioner:
    """Instantiate a registered strategy by name."""
    try:
        return PARTITIONERS[name]()
    except KeyError:
        raise PlacementError(
            f"unknown partitioner {name!r}; choices: {sorted(PARTITIONERS)}"
        ) from None
