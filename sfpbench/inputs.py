"""Seeded inputs for the three workloads.

Everything the program receives is generated here from ``--seed``: tenant
chains (the §VI-A recipe of :func:`repro.traffic.workload.make_sfcs`: 1-5
distinct NF types out of 10, sized so nothing is rejected), the concrete
rules behind each dataplane NF, and packet batches.  The same seed gives the
same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.spec import SFC, SwitchSpec
from repro.nfs import get_nf
from repro.traffic.flows import FlowGenerator
from repro.traffic.workload import WorkloadConfig, make_sfcs

#: Roomy switch for the control workloads: at fleet-churn's ~250 tenants per
#: switch the backplane carries ~700 of 2,000 Gbps and SRAM is far from full,
#: so every offer is a live tenant.
CONTROL_SPEC = SwitchSpec(capacity_gbps=2000.0)

#: Chains of the control workloads: 1-5 NFs, 1-4 rules per NF, 0.5-4 Gbps.
CONTROL_CHAINS = WorkloadConfig(
    num_types=10,
    avg_chain_length=3,
    chain_length_spread=2,
    rules_min=1,
    rules_max=4,
    mean_bandwidth_gbps=1.5,
    min_bandwidth_gbps=0.5,
    max_bandwidth_gbps=4.0,
)

#: Chains of dataplane-churn: 3-5 NFs of 64 concrete rules each.
DATAPLANE_CHAINS = replace(
    CONTROL_CHAINS, avg_chain_length=4, chain_length_spread=1,
    rules_min=64, rules_max=64,
)

#: Replacement chains drawn per run (reused cyclically, re-labelled with the
#: tenant and a version number).
POOL_SIZE = 4096


@dataclass(frozen=True)
class Chains:
    """The initial chain of every tenant plus the replacement pool."""

    initial: tuple[SFC, ...]
    pool: tuple[SFC, ...]

    def replacement(self, k: int, tenant_id: int, version: int) -> SFC:
        """The ``k``-th replacement chain, relabelled for ``tenant_id``."""
        base = self.pool[k % len(self.pool)]
        return replace(base, tenant_id=tenant_id, name=f"t{tenant_id}v{version}")

    def rewrite(self, k: int, tenant_id: int, version: int) -> SFC:
        """``tenant_id``'s own initial chain under a new version: the same
        NFs, with every concrete rule drawn afresh (see :class:`RuleBook`)."""
        return replace(self.initial[tenant_id], name=f"t{tenant_id}v{version}")


def make_chains(
    seed: int, config: WorkloadConfig, tenants: int, pool: int = POOL_SIZE
) -> Chains:
    """``tenants`` initial chains (IDs 0..tenants-1, version 0) and a
    replacement pool of ``pool`` chains, all drawn from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    initial = make_sfcs(replace(config, num_sfcs=tenants), rng)
    pool = make_sfcs(replace(config, num_sfcs=pool), rng)
    return Chains(
        initial=tuple(
            replace(s, name=f"t{s.tenant_id}v0") for s in initial
        ),
        pool=tuple(pool),
    )


class RuleBook:
    """The dataplane workload's ``rule_factory``: each NF's concrete rules
    come from that NF's ``generate_rules``, seeded by (seed, tenant, chain
    version, position).  :meth:`prepare` draws a chain's rules ahead of the
    op that installs it, so the controller's call is a lookup and rule
    generation is not timed as part of the op."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rules: dict[tuple[str, int], tuple] = {}

    def prepare(self, sfc: SFC) -> None:
        for position, type_id in enumerate(sfc.nf_types):
            key = (sfc.name, position)
            if key not in self._rules:
                version = int(sfc.name.rsplit("v", 1)[1])
                rng = np.random.default_rng(
                    [self.seed, 2, sfc.tenant_id, version, position]
                )
                self._rules[key] = tuple(
                    get_nf(type_id).generate_rules(rng, sfc.rules[position])
                )

    def __call__(self, sfc: SFC, position: int, nf_name: str) -> tuple:
        self.prepare(sfc)
        return self._rules.pop((sfc.name, position))


class Traffic:
    """64-byte packet batches: 8 flows per tenant, a batch spread evenly
    over the tenants it is built for."""

    FLOWS_PER_TENANT = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._flows: dict[int, list] = {}
        self._batches = 0

    def flows(self, tenant_id: int) -> list:
        flows = self._flows.get(tenant_id)
        if flows is None:
            gen = FlowGenerator(np.random.default_rng([self.seed, 3, tenant_id]))
            flows = self._flows[tenant_id] = gen.flows(
                self.FLOWS_PER_TENANT, tenant_id=tenant_id
            )
        return flows

    def batches(self, fabric, size: int) -> list[tuple]:
        """``(pipeline, batch of size packets)`` for every switch of
        ``fabric`` that hosts tenants, spread over that switch's tenants."""
        return [
            (shard.pipeline, self.batch(sorted(shard.tenants), size))
            for shard in fabric.shards.values()
            if shard.tenants
        ]

    def batch(self, tenants, size: int) -> list:
        """``size`` fresh packets over ``tenants`` (sorted IDs); the first
        ``size % len(tenants)`` tenants get one packet more."""
        self._batches += 1
        gen = FlowGenerator(np.random.default_rng([self.seed, 4, self._batches]))
        share, extra = divmod(size, len(tenants))
        packets = []
        for i, tenant_id in enumerate(tenants):
            count = share + (1 if i < extra else 0)
            if count:
                packets.extend(
                    gen.packets(self.flows(tenant_id), count, size_bytes=64)
                )
        return packets
