"""Mutable pipeline resource state shared by the greedy placer, the rounding
algorithm's constructive assignment, and the runtime-update engine.

Tracks, per (NF type, physical stage): whether a physical NF is installed and
how many rule entries the logical NFs mapped there consume, plus the
backplane bandwidth in use — i.e. exactly the state the data plane's control
API would mirror.  Supports both memory-accounting variants (Eq. 24
consolidation / Eq. 25 per-NF blocks) and cheap snapshot/rollback, which the
greedy algorithm uses for its try-then-commit placement attempts.

Performance note (this sits in the innermost loop of every constructive
placement: ``fits`` is probed for each candidate stage of each NF of each
chain): the per-(type, stage) block charge and the per-stage totals are
maintained *incrementally* on every mutation instead of being recomputed
from the entry matrix, making ``fits``/``blocks_needed_for`` O(1).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.core.placement import NFAssignment, Placement
from repro.core.spec import ProblemInstance
from repro.errors import PlacementError
from repro.units import gbps_to_units, units_to_gbps


def stable_digest(payload: object) -> str:
    """A short stable blake2b hex digest of a JSON-native payload.

    The payload is serialized canonically (sorted keys, no whitespace), so
    equal values always hash equal; floats must already be in a bit-exact
    encoding (use ``float.hex()``) when bit-identity matters.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class _Snapshot:
    physical: np.ndarray
    entries: np.ndarray
    nf_blocks: np.ndarray
    charged: np.ndarray
    stage_blocks: np.ndarray
    backplane_units: int


class LinkState:
    """Capacity accounting for one inter-switch fabric link.

    The fabric orchestrator charges a link with the bandwidth of every
    stitched chain whose segments are split across its endpoints.  The
    mechanism deliberately mirrors the switch-backplane accounting below
    (:meth:`PipelineState.add_backplane` / ``release_backplane``): same
    commit/release pair over exact integer units, same capacity check, so a
    link binds exactly the way Equation (12) binds a backplane — only the
    capacity constant differs.
    """

    def __init__(self, capacity_gbps: float) -> None:
        if not (math.isfinite(capacity_gbps) and capacity_gbps > 0):
            raise PlacementError(
                f"link capacity must be positive, got {capacity_gbps}"
            )
        self.capacity_gbps = float(capacity_gbps)
        self.capacity_units = gbps_to_units(capacity_gbps)
        #: Units committed to chains stitched across this link.
        self.load_units = 0

    @property
    def load_gbps(self) -> float:
        """Committed load in Gbps (a view of :attr:`load_units`)."""
        return units_to_gbps(self.load_units)

    def fits(self, units: int) -> bool:
        """Whether another ``units`` of stitched traffic fits this link."""
        return self.load_units + units <= self.capacity_units

    def add_load(self, units: int) -> None:
        """Commit stitched-chain bandwidth; raises beyond capacity."""
        units = operator.index(units)  # integers only: floats would drift
        if not self.fits(units):
            raise PlacementError(f"link capacity exceeded: {self!r} + {units}")
        self.load_units += units

    def release_load(self, units: int) -> None:
        """Return stitched-chain bandwidth (tenant departure); raises when
        more is released than was committed."""
        units = operator.index(units)
        if units > self.load_units:
            raise PlacementError(f"releasing {units} units from {self!r}")
        self.load_units -= units

    def digest(self) -> str:
        """Stable blake2b digest of the link's exact integer state — what
        invariant checks and crash-recovery acceptance compare instead of
        deep structures."""
        return stable_digest(
            {"capacity_units": self.capacity_units, "load_units": self.load_units}
        )

    def __repr__(self) -> str:
        return (
            f"LinkState(load={self.load_gbps:.1f}/"
            f"{self.capacity_gbps:.1f} Gbps)"
        )


class PipelineState:
    """Resource occupancy of the switch pipeline during placement."""

    def __init__(
        self,
        instance: ProblemInstance,
        consolidate: bool = True,
        reserve_physical_block: bool = True,
    ) -> None:
        self.instance = instance
        self.switch = instance.switch
        self.consolidate = consolidate
        self.reserve_physical_block = reserve_physical_block
        I, S = instance.num_types, instance.switch.stages
        #: x_ik — installed physical NFs.  Assign via :attr:`physical`'s
        #: setter-like :meth:`set_physical_layout` to keep caches coherent.
        self._physical = np.zeros((I, S), dtype=bool)
        #: Rule entries per (type, physical stage) (consolidated accounting).
        self.entries = np.zeros((I, S), dtype=np.int64)
        #: Whole blocks charged per (type, stage) under Eq. 25 accounting.
        self.nf_blocks = np.zeros((I, S), dtype=np.int64)
        #: Cached block charge per (type, stage) under the active variant.
        self._charged = np.zeros((I, S), dtype=np.int64)
        #: Cached per-stage totals of ``_charged``.
        self._stage_blocks = np.zeros(S, dtype=np.int64)
        #: Backplane units in use, counting recirculation passes (Eq. 12
        #: LHS) — an exact integer, so any add/release order sums alike.
        self.backplane_units = 0

    @property
    def backplane_gbps(self) -> float:
        """Backplane load in Gbps (a view of :attr:`backplane_units`)."""
        return units_to_gbps(self.backplane_units)

    # ------------------------------------------------------------------
    # Physical layout access (kept cache-coherent)
    # ------------------------------------------------------------------
    @property
    def physical(self) -> np.ndarray:
        return self._physical

    @physical.setter
    def physical(self, layout: np.ndarray) -> None:
        layout = np.asarray(layout, dtype=bool)
        if layout.shape != self._physical.shape:
            raise PlacementError(
                f"layout shape {layout.shape} != {self._physical.shape}"
            )
        self._physical = layout.copy()
        self._recompute_all()

    # ------------------------------------------------------------------
    # Block accounting
    # ------------------------------------------------------------------
    def _charge_of(self, i: int, s: int) -> int:
        epb = self.switch.entries_per_block
        if self.consolidate:
            blocks = -(-int(self.entries[i, s]) // epb)
        else:
            blocks = int(self.nf_blocks[i, s])
        if self.reserve_physical_block and self._physical[i, s]:
            blocks = max(blocks, 1)
        return blocks

    def _refresh(self, i: int, s: int) -> None:
        new = self._charge_of(i, s)
        self._stage_blocks[s] += new - self._charged[i, s]
        self._charged[i, s] = new

    def _recompute_all(self) -> None:
        epb = self.switch.entries_per_block
        if self.consolidate:
            charged = -(-self.entries // epb)
        else:
            charged = self.nf_blocks.copy()
        if self.reserve_physical_block:
            charged = np.maximum(charged, self._physical.astype(np.int64))
        self._charged = charged
        self._stage_blocks = charged.sum(axis=0)

    def blocks_at_stage(self, s: int) -> int:
        """Blocks currently charged on physical stage ``s``."""
        return int(self._stage_blocks[s])

    def free_blocks(self, s: int) -> int:
        """Uncommitted blocks remaining on physical stage ``s``."""
        return self.switch.blocks_per_stage - int(self._stage_blocks[s])

    def blocks_needed_for(self, i: int, s: int, rules: int) -> int:
        """Extra blocks that adding a logical NF (type ``i``, ``rules``
        entries) to stage ``s`` would consume, including installing the
        physical NF if absent."""
        epb = self.switch.entries_per_block
        if self.consolidate:
            new_blocks = -(-(int(self.entries[i, s]) + rules) // epb)
        else:
            new_blocks = int(self.nf_blocks[i, s]) + self.switch.blocks_for_entries(rules)
        if self.reserve_physical_block:
            new_blocks = max(new_blocks, 1)
        return new_blocks - int(self._charged[i, s])

    def fits(self, i: int, s: int, rules: int) -> bool:
        """Whether a logical NF of type ``i`` with ``rules`` entries fits on
        stage ``s`` (installing the physical NF if needed)."""
        return self.blocks_needed_for(i, s, rules) <= self.free_blocks(s)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_logical_nf(self, i: int, s: int, rules: int) -> None:
        """Install (if needed) the physical NF and copy a logical NF's rules
        onto stage ``s``.  Raises if it does not fit."""
        if not self.fits(i, s, rules):
            raise PlacementError(
                f"type {i + 1} with {rules} rules does not fit stage {s}"
            )
        self._physical[i, s] = True
        self.entries[i, s] += rules
        self.nf_blocks[i, s] += self.switch.blocks_for_entries(rules)
        self._refresh(i, s)

    def remove_logical_nf(self, i: int, s: int, rules: int) -> None:
        """Release a logical NF's rules (the physical NF stays installed, as
        in the paper's data plane where physical NFs are static)."""
        if self.entries[i, s] < rules:
            raise PlacementError(
                f"removing {rules} rules from (type {i + 1}, stage {s}) "
                f"which only holds {self.entries[i, s]}"
            )
        self.entries[i, s] -= rules
        self.nf_blocks[i, s] -= self.switch.blocks_for_entries(rules)
        self._refresh(i, s)

    def install_physical(self, i: int, s: int) -> None:
        """Install a physical NF with no tenant rules yet."""
        if not self._physical[i, s]:
            if self.reserve_physical_block and self.free_blocks(s) < 1:
                raise PlacementError(
                    f"no free block on stage {s} to install type {i + 1}"
                )
            self._physical[i, s] = True
            self._refresh(i, s)

    def add_backplane(self, units: int) -> None:
        """Commit backplane units; raises beyond capacity (Eq. 12)."""
        units = operator.index(units)  # integers only: floats would drift
        if self.backplane_units + units > self.switch.capacity_units:
            raise PlacementError(
                f"backplane capacity exceeded: "
                f"{units_to_gbps(self.backplane_units + units):.1f} "
                f"> {self.switch.capacity_gbps:.1f} Gbps"
            )
        self.backplane_units += units

    def release_backplane(self, units: int) -> None:
        """Return backplane units (tenant departure); raises when more is
        released than was committed."""
        units = operator.index(units)
        if units > self.backplane_units:
            raise PlacementError(f"releasing {units} of {self.backplane_units} units")
        self.backplane_units -= units

    def digest(self) -> str:
        """Stable blake2b digest over the sorted snapshot of the full
        resource state (physical layout, entry/block matrices, backplane).

        Every field is an exact integer (the backplane included), so two
        digests are equal iff the states are **bit-identical** — the
        controller's churn invariant and the durability subsystem's
        recovery acceptance compare this short hash instead of deep
        structures.

        The fields are hashed in a fixed sorted order over their raw array
        bytes (shape included) rather than through a JSON round-trip: the
        WAL journals one digest per committed op, so this sits on the
        controller's hot path.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(b"%d" % self.backplane_units)
        h.update(b"|%d%d|" % (self.consolidate, self.reserve_physical_block))
        for arr in (
            self.entries.astype(np.int64, copy=False),
            self.nf_blocks.astype(np.int64, copy=False),
            self._physical,
        ):
            h.update(str(arr.shape).encode("ascii"))
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Snapshot / rollback (greedy's Try_placement)
    # ------------------------------------------------------------------
    def snapshot(self) -> _Snapshot:
        """Capture the full resource state for try-then-commit placement."""
        return _Snapshot(
            self._physical.copy(),
            self.entries.copy(),
            self.nf_blocks.copy(),
            self._charged.copy(),
            self._stage_blocks.copy(),
            self.backplane_units,
        )

    def restore(self, snap: _Snapshot) -> None:
        """Roll back to a snapshot (greedy's failed Try_placement)."""
        self._physical = snap.physical.copy()
        self.entries = snap.entries.copy()
        self.nf_blocks = snap.nf_blocks.copy()
        self._charged = snap.charged.copy()
        self._stage_blocks = snap.stage_blocks.copy()
        self.backplane_units = snap.backplane_units

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_placement(
        cls, placement: Placement, reserve_physical_block: bool = True
    ) -> "PipelineState":
        """Reconstruct the resource state an existing placement occupies."""
        state = cls(
            placement.instance,
            consolidate=placement.consolidate,
            reserve_physical_block=reserve_physical_block,
        )
        state._physical = placement.physical.copy()
        S = placement.instance.switch.stages
        for l, asg in placement.assignments.items():
            sfc = placement.instance.sfcs[l]
            for j, k in enumerate(asg.stages):
                i = sfc.nf_types[j] - 1
                s = (k - 1) % S
                state.entries[i, s] += sfc.rules[j]
                state.nf_blocks[i, s] += placement.instance.switch.blocks_for_entries(
                    sfc.rules[j]
                )
            state.backplane_units += asg.passes(S) * sfc.bandwidth_units
        state._recompute_all()
        return state

    def make_placement(
        self, assignments: dict[int, NFAssignment], algorithm: str
    ) -> Placement:
        """Freeze the current state + ``assignments`` into a Placement."""
        return Placement(
            instance=self.instance,
            physical=self._physical.copy(),
            assignments=dict(assignments),
            consolidate=self.consolidate,
            algorithm=algorithm,
        )
