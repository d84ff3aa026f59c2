"""Problem data model — the code form of the paper's Table I.

==========  =======================================================
Paper       Here
==========  =======================================================
``i / I``   :attr:`NFType.type_id` / :attr:`ProblemInstance.num_types`
``j / J_l`` position in :attr:`SFC.nf_types` / :attr:`SFC.length`
``k / K``   virtual stage index / :attr:`ProblemInstance.virtual_stages`
``l / L``   index into :attr:`ProblemInstance.sfcs`
``S``       :attr:`SwitchSpec.stages`
``B``       :attr:`SwitchSpec.blocks_per_stage`
``E / b``   :attr:`SwitchSpec.block_bits` / :attr:`SwitchSpec.rule_bits`
``C``       :attr:`SwitchSpec.capacity_gbps`
``f_jl``    :attr:`SFC.nf_types` entries
``F_jl``    :attr:`SFC.rules` entries
``T_l``     :attr:`SFC.bandwidth_gbps`
==========  =======================================================

Stages are 0-based here (the math in :mod:`repro.core.ilp` uses 1-based
virtual stage indices internally so that "stage 0" can mean *unplaced*, as in
the paper's ``s_l = 0`` convention).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro.errors import PlacementError
from repro.units import gbps_to_units, units_to_gbps


@dataclass(frozen=True)
class NFType:
    """A network-function *type* offered by the provider (paper §III:
    "the provider predefines a few NFs, and the tenants make selection").

    ``type_id`` is the paper's index ``i`` (1-based, as in constraint (6)
    where the numeric value of ``i`` participates in arithmetic).
    """

    type_id: int
    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.type_id < 1:
            raise PlacementError(f"NF type ids are 1-based, got {self.type_id}")


#: The four NFs the paper prototypes in P4 (§VI-A) plus the other kinds it
#: cites as switch-implementable (§II-A), giving the 10 types used in §VI-C.
_DEFAULT_CATALOG = (
    ("firewall", "5-tuple ACL firewall (P4Guard-style)"),
    ("load_balancer", "L4 load balancer (SilkRoad-style), 3 tables per Fig. 2"),
    ("traffic_classifier", "DSCP/flow classifier"),
    ("router", "LPM IPv4 router"),
    ("rate_limiter", "token-bucket rate limiter"),
    ("nat", "source NAT"),
    ("vpn_gateway", "IPsec-style gateway (match/rewrite only)"),
    ("cache_index", "in-network cache index (NetCache-style)"),
    ("ddos_detector", "threshold-based heavy-hitter detector"),
    ("monitor", "per-tenant byte/packet counters"),
)


def default_nf_catalog(count: int = 10) -> list[NFType]:
    """The default provider catalog; ``count`` <= 10 types (paper uses 10)."""
    if not 1 <= count <= len(_DEFAULT_CATALOG):
        raise PlacementError(
            f"count must be in [1, {len(_DEFAULT_CATALOG)}], got {count}"
        )
    return [
        NFType(type_id=i + 1, name=name, description=desc)
        for i, (name, desc) in enumerate(_DEFAULT_CATALOG[:count])
    ]


def _ints(values, what: str, owner: str) -> tuple[int, ...]:
    """``values`` as ints, refusing anything not already an integer (no
    silent truncation of ``1.7`` to ``1``, no bools)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise PlacementError(f"{owner}: {what} must be integers, got {v!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class SFC:
    """A tenant's service function chain: ordered NF types with per-NF rule
    counts and a bandwidth demand (the tuple ``(T_l, [f_jl], [F_jl])``).

    The demand is converted once, here, to whole accounting units
    (:attr:`bandwidth_units`, see :mod:`repro.units`), and
    ``bandwidth_gbps`` is normalized to that integer's Gbps reading.
    Malformed input raises :class:`~repro.errors.PlacementError` before
    any state sees it.
    """

    name: str
    nf_types: tuple[int, ...]
    rules: tuple[int, ...]
    bandwidth_gbps: float
    tenant_id: int = 0
    #: ``T_l`` in whole accounting units — derived, never passed in.
    bandwidth_units: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner = f"SFC {self.name!r}"
        if not isinstance(self.name, str):
            raise PlacementError(f"{owner}: name must be a string")
        (tenant_id,) = _ints((self.tenant_id,), "tenant ids", owner)
        nf_types = _ints(self.nf_types, "NF type ids", owner)
        rules = _ints(self.rules, "rule counts", owner)
        if len(nf_types) == 0:
            raise PlacementError(f"{owner} has no NFs")
        if len(nf_types) != len(rules):
            raise PlacementError(
                f"{owner}: {len(nf_types)} NFs but {len(rules)} rule counts"
            )
        if tenant_id < 0 or any(t < 1 for t in nf_types):
            raise PlacementError(f"{owner}: ids are 0-based, NF types 1-based")
        if any(r < 0 for r in rules):
            raise PlacementError(f"{owner}: negative rule count")
        bw = self.bandwidth_gbps
        finite = not isinstance(bw, bool) and isinstance(bw, numbers.Real)
        units = gbps_to_units(bw) if finite and math.isfinite(bw) else 0
        if units < 1:
            raise PlacementError(
                f"{owner}: bandwidth must be finite and at least one 1 kbps "
                f"unit, got {bw!r} Gbps"
            )
        # Dataclass is frozen; normalize via object.__setattr__.
        object.__setattr__(self, "tenant_id", tenant_id)
        object.__setattr__(self, "nf_types", nf_types)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "bandwidth_units", units)
        object.__setattr__(self, "bandwidth_gbps", units_to_gbps(units))

    def to_dict(self) -> dict:
        """JSON-native form — the shape shared by churn traces
        (:mod:`repro.controller.events`) and the durability subsystem's WAL
        records and checkpoints."""
        return {
            "name": self.name,
            "nf_types": list(self.nf_types),
            "rules": list(self.rules),
            "bandwidth_gbps": self.bandwidth_gbps,
            "tenant_id": self.tenant_id,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SFC":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=record["name"],
            nf_types=tuple(record["nf_types"]),
            rules=tuple(record["rules"]),
            bandwidth_gbps=record["bandwidth_gbps"],
            tenant_id=record["tenant_id"],
        )

    @property
    def length(self) -> int:
        """The paper's ``J_l``."""
        return len(self.nf_types)

    @property
    def total_rules(self) -> int:
        """``sum_j F_jl`` — total table entries this chain installs."""
        return sum(self.rules)

    @property
    def weight(self) -> float:
        """This chain's contribution to the objective when placed:
        ``T_l * J_l`` (Equation 1/14)."""
        return self.bandwidth_gbps * self.length


@dataclass(frozen=True)
class SwitchSpec:
    """Physical switch resources (paper constants ``S, B, E, b, C``).

    ``rule_bits`` (``b``) and ``block_bits`` (``E``) only ever appear as the
    ratio ``E/b`` = entries per block; both are kept so the memory constraint
    reads like Equation (24)/(25).
    """

    stages: int = 8
    blocks_per_stage: int = 20
    block_bits: int = 64_000
    rule_bits: int = 64
    capacity_gbps: float = 400.0
    #: Per-pass pipeline latency in ns; calibrated so a 4-NF pass ≈ the
    #: paper's 341 ns (§VI-B).  Used by the data-plane latency model.
    stage_latency_ns: float = 25.0
    recirculation_latency_ns: float = 11.7

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise PlacementError(f"switch needs >=1 stage, got {self.stages}")
        if self.blocks_per_stage < 1:
            raise PlacementError("switch needs >=1 block per stage")
        if self.block_bits % self.rule_bits != 0:
            raise PlacementError(
                f"block size {self.block_bits} not a multiple of rule width "
                f"{self.rule_bits}"
            )
        if not math.isfinite(self.capacity_gbps) or self.capacity_units < 1:
            raise PlacementError("capacity must be positive and finite")

    @property
    def capacity_units(self) -> int:
        """``C`` in whole accounting units (Eq. 12's right-hand side)."""
        return gbps_to_units(self.capacity_gbps)

    @property
    def entries_per_block(self) -> int:
        """``E / b`` — rule entries that fit one SRAM block (paper: 1000)."""
        return self.block_bits // self.rule_bits

    @property
    def entries_per_stage(self) -> int:
        return self.blocks_per_stage * self.entries_per_block

    def blocks_for_entries(self, entries: int) -> int:
        """Blocks needed to hold ``entries`` rules (the ceil of Eq. 24)."""
        if entries < 0:
            raise PlacementError(f"negative entry count {entries}")
        return math.ceil(entries / self.entries_per_block)

    def to_dict(self) -> dict:
        """JSON-native form — the shape shared by durability manifests and
        scenario topology specs."""
        return {
            "stages": self.stages,
            "blocks_per_stage": self.blocks_per_stage,
            "block_bits": self.block_bits,
            "rule_bits": self.rule_bits,
            "capacity_gbps": self.capacity_gbps,
            "stage_latency_ns": self.stage_latency_ns,
            "recirculation_latency_ns": self.recirculation_latency_ns,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SwitchSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            stages=int(record["stages"]),
            blocks_per_stage=int(record["blocks_per_stage"]),
            block_bits=int(record["block_bits"]),
            rule_bits=int(record["rule_bits"]),
            capacity_gbps=float(record["capacity_gbps"]),
            stage_latency_ns=float(record["stage_latency_ns"]),
            recirculation_latency_ns=float(record["recirculation_latency_ns"]),
        )


@dataclass(frozen=True)
class ProblemInstance:
    """One placement problem: a switch, the SFC candidates, the NF catalog
    size ``I``, and the recirculation budget ``R`` (so ``K = S * (R+1)``).
    """

    switch: SwitchSpec
    sfcs: tuple[SFC, ...]
    num_types: int
    max_recirculations: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "sfcs", tuple(self.sfcs))
        if self.num_types < 1:
            raise PlacementError("need at least one NF type")
        if self.max_recirculations < 0:
            raise PlacementError("max_recirculations must be >= 0")
        for sfc in self.sfcs:
            bad = [t for t in sfc.nf_types if t > self.num_types]
            if bad:
                raise PlacementError(
                    f"SFC {sfc.name!r} uses type ids {bad} beyond catalog "
                    f"size {self.num_types}"
                )

    @property
    def num_sfcs(self) -> int:
        """The paper's ``L``."""
        return len(self.sfcs)

    @property
    def virtual_stages(self) -> int:
        """``K = S * (R + 1)`` — the unrolled pipeline length."""
        return self.switch.stages * (self.max_recirculations + 1)

    def with_sfcs(self, sfcs: list[SFC] | tuple[SFC, ...]) -> "ProblemInstance":
        """A copy of this instance over a different candidate set."""
        return ProblemInstance(
            switch=self.switch,
            sfcs=tuple(sfcs),
            num_types=self.num_types,
            max_recirculations=self.max_recirculations,
        )

    def with_recirculations(self, r: int) -> "ProblemInstance":
        """A copy with a different recirculation budget (Fig. 7 sweep)."""
        return ProblemInstance(
            switch=self.switch,
            sfcs=self.sfcs,
            num_types=self.num_types,
            max_recirculations=r,
        )
