"""Placement solutions and their derived metrics.

A :class:`Placement` is the integral outcome of any placement algorithm
(ILP, LP rounding, greedy): which physical NF types sit on which physical
stage (the ``x_ik``) and, per SFC, which virtual stage hosts each logical NF
(the ``z_ijkl``, collapsed to one stage index per chain position).

All the quantities the evaluation plots are derived here so every algorithm
is measured identically:

* **objective** — Eq. (1): ``sum_placed T_l * J_l``
* **offloaded throughput** — ``sum_placed T_l``
* **backplane load** — Eq. (12) LHS: ``sum_placed (R_l + 1) * T_l`` (this is
  the "throughput (Gbps)" axis of Figs. 6/7/9/10/11, which saturates at the
  400 Gbps backplane capacity)
* **block / entry utilization** — Eq. (24) (consolidated) or Eq. (25)
  (per-logical-NF blocks), per Figs. 6/7
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import ProblemInstance
from repro.errors import PlacementError
from repro.units import units_to_gbps


@dataclass(frozen=True)
class NFAssignment:
    """Virtual-stage assignment of one SFC: ``stages[j]`` is the 1-based
    virtual stage hosting chain position ``j`` (paper's ``g_jl``)."""

    sfc_index: int
    stages: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(int(s) for s in self.stages))
        if any(s < 1 for s in self.stages):
            raise PlacementError("virtual stages are 1-based; got a stage < 1")
        if any(b <= a for a, b in zip(self.stages, self.stages[1:])):
            raise PlacementError(
                f"SFC {self.sfc_index}: stages {self.stages} are not strictly "
                "increasing (violates ordering constraint (8))"
            )

    @property
    def last_stage(self) -> int:
        """The paper's ``s_l``."""
        return self.stages[-1]

    def passes(self, physical_stages: int) -> int:
        """``R_l + 1`` — pipeline passes this chain's traffic makes."""
        return -(-self.last_stage // physical_stages)  # ceil division

    def recirculations(self, physical_stages: int) -> int:
        """The paper's ``R_l``."""
        return self.passes(physical_stages) - 1


@dataclass
class Placement:
    """An integral placement: physical layout + per-chain assignments.

    ``physical`` is a boolean ``(I, S)`` matrix (``x_ik`` over *physical*
    stages; the virtual repetition of constraint (10) is implicit).
    ``assignments`` maps SFC index -> :class:`NFAssignment` for placed
    chains only.
    """

    instance: ProblemInstance
    physical: np.ndarray
    assignments: dict[int, NFAssignment] = field(default_factory=dict)
    #: Which memory-accounting variant produced/should judge this placement
    #: (True = Eq. 24 consolidation, False = Eq. 25 per-NF blocks).
    consolidate: bool = True
    #: Wall-clock seconds the producing algorithm took (for Fig. 8).
    solve_seconds: float = 0.0
    #: Free-form provenance ("ilp", "rounding", "greedy", ...).
    algorithm: str = ""

    def __post_init__(self) -> None:
        expected = (self.instance.num_types, self.instance.switch.stages)
        self.physical = np.asarray(self.physical, dtype=bool)
        if self.physical.shape != expected:
            raise PlacementError(
                f"physical layout has shape {self.physical.shape}, expected {expected}"
            )
        for l, asg in self.assignments.items():
            if not 0 <= l < self.instance.num_sfcs:
                raise PlacementError(f"assignment for unknown SFC index {l}")
            sfc = self.instance.sfcs[l]
            if len(asg.stages) != sfc.length:
                raise PlacementError(
                    f"SFC {l}: {len(asg.stages)} stage assignments for a "
                    f"chain of length {sfc.length}"
                )

    # ------------------------------------------------------------------
    # Chain-level quantities
    # ------------------------------------------------------------------
    @property
    def placed_indices(self) -> list[int]:
        return sorted(self.assignments)

    @property
    def num_placed(self) -> int:
        return len(self.assignments)

    def passes(self, l: int) -> int:
        """``R_l + 1`` for chain ``l`` (0 if not placed)."""
        asg = self.assignments.get(l)
        if asg is None:
            return 0
        return asg.passes(self.instance.switch.stages)

    # ------------------------------------------------------------------
    # Objective / traffic metrics
    # ------------------------------------------------------------------
    @property
    def objective(self) -> float:
        """Eq. (1): offloaded processing, ``sum_placed T_l * J_l``."""
        return sum(self.instance.sfcs[l].weight for l in self.assignments)

    @property
    def offloaded_gbps(self) -> float:
        """Tenant traffic served by the switch: ``sum_placed T_l``."""
        return sum(self.instance.sfcs[l].bandwidth_gbps for l in self.assignments)

    @property
    def backplane_units(self) -> int:
        """Backplane bandwidth consumed, counting recirculation passes
        (Eq. 12 LHS), in exact accounting units."""
        return sum(
            self.passes(l) * self.instance.sfcs[l].bandwidth_units
            for l in self.assignments
        )

    @property
    def backplane_gbps(self) -> float:
        """:attr:`backplane_units` in Gbps — the "throughput" axis of the
        placement figures."""
        return units_to_gbps(self.backplane_units)

    # ------------------------------------------------------------------
    # Memory metrics
    # ------------------------------------------------------------------
    def entries_by_type_stage(self) -> np.ndarray:
        """``(I, S)`` matrix of installed rule entries after folding virtual
        stages onto physical ones (the inner sums of Eq. 24)."""
        I = self.instance.num_types
        S = self.instance.switch.stages
        entries = np.zeros((I, S), dtype=np.int64)
        for l, asg in self.assignments.items():
            sfc = self.instance.sfcs[l]
            for j, k in enumerate(asg.stages):
                s = (k - 1) % S
                entries[sfc.nf_types[j] - 1, s] += sfc.rules[j]
        return entries

    def blocks_by_type_stage(self) -> np.ndarray:
        """``(I, S)`` blocks charged per (type, physical stage) under this
        placement's accounting variant — Eq. (24) consolidation (one ceil
        over the pooled entries) or Eq. (25) (one ceil per logical NF)."""
        switch = self.instance.switch
        S = switch.stages
        if self.consolidate:
            entries = self.entries_by_type_stage()
            return -(-entries // switch.entries_per_block)  # ceil, vectorized
        blocks = np.zeros((self.instance.num_types, S), dtype=np.int64)
        for l, asg in self.assignments.items():
            sfc = self.instance.sfcs[l]
            for j, k in enumerate(asg.stages):
                blocks[sfc.nf_types[j] - 1, (k - 1) % S] += switch.blocks_for_entries(
                    sfc.rules[j]
                )
        return blocks

    def blocks_by_stage(self) -> np.ndarray:
        """Blocks consumed per physical stage (rule storage only; the
        verifier additionally charges idle physical-NF reservations)."""
        return self.blocks_by_type_stage().sum(axis=0)

    @property
    def total_entries(self) -> int:
        """Total installed rule entries across the pipeline."""
        return sum(self.instance.sfcs[l].total_rules for l in self.assignments)

    @property
    def block_utilization(self) -> float:
        """Average blocks used per stage (the Fig. 6a/7a left axis, whose
        "upper bound" is ``blocks_per_stage``)."""
        blocks = self.blocks_by_stage()
        return float(blocks.mean()) if blocks.size else 0.0

    @property
    def entry_utilization(self) -> float:
        """Installed entries / capacity of the blocks they occupy — lower
        under Eq. (25) because of per-NF internal fragmentation (Fig. 6b)."""
        blocks = int(self.blocks_by_stage().sum())
        if blocks == 0:
            return 0.0
        return self.total_entries / (blocks * self.instance.switch.entries_per_block)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """The metric row the experiment harness prints per data point."""
        return {
            "num_placed": float(self.num_placed),
            "objective": self.objective,
            "offloaded_gbps": self.offloaded_gbps,
            "backplane_gbps": self.backplane_gbps,
            "block_utilization": self.block_utilization,
            "entry_utilization": self.entry_utilization,
            "solve_seconds": self.solve_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"Placement(algorithm={self.algorithm!r}, placed={self.num_placed}/"
            f"{self.instance.num_sfcs}, objective={self.objective:.1f}, "
            f"backplane={self.backplane_gbps:.1f}Gbps)"
        )
