"""Independent feasibility checking for placements.

:func:`check_placement` re-derives every paper constraint directly from a
:class:`~repro.core.placement.Placement` — *without* going through the MILP
encoding — so it acts as an oracle for all three algorithms (ILP extraction,
randomized rounding's ``Verify_vars``, greedy) and as the property the
hypothesis tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement


def check_placement(
    placement: Placement,
    require_all_types: bool = True,
    reserve_physical_block: bool = True,
) -> list[str]:
    """Return human-readable violations (empty list = feasible).

    Checks, in paper order:

    * assignments reference installed physical NFs of the right type (9),
    * virtual stages within ``K`` and strictly increasing (8) — increase is
      already enforced by :class:`NFAssignment`, the range is checked here,
    * per-stage SRAM blocks within ``B`` under the placement's accounting
      variant (11/24 or 25), optionally reserving a block per installed
      physical NF,
    * backplane capacity with recirculation amplification (12),
    * optionally, every type installed somewhere (4).
    """
    inst = placement.instance
    switch = inst.switch
    S, K = switch.stages, inst.virtual_stages
    problems: list[str] = []

    if require_all_types:
        missing = [
            i + 1 for i in range(inst.num_types) if not placement.physical[i].any()
        ]
        if missing:
            problems.append(f"types {missing} not installed on any stage (constraint 4)")

    for l, asg in sorted(placement.assignments.items()):
        sfc = inst.sfcs[l]
        for j, k in enumerate(asg.stages):
            if not 1 <= k <= K:
                problems.append(
                    f"SFC {l} position {j}: virtual stage {k} outside [1, {K}]"
                )
                continue
            i = sfc.nf_types[j] - 1
            if not placement.physical[i, (k - 1) % S]:
                problems.append(
                    f"SFC {l} position {j}: type {i + 1} not installed on "
                    f"physical stage {(k - 1) % S} (constraint 9)"
                )

    # Memory (24/25).  blocks_by_type_stage applies the right variant; an
    # installed physical NF reserves at least one block (its first logical
    # NF's rules land inside that reservation, hence max, not sum).
    per_type = placement.blocks_by_type_stage()
    if reserve_physical_block:
        per_type = np.maximum(per_type, placement.physical.astype(np.int64))
    blocks = per_type.sum(axis=0)
    over = np.flatnonzero(blocks > switch.blocks_per_stage)
    for s in over:
        problems.append(
            f"stage {s}: {int(blocks[s])} blocks > capacity "
            f"{switch.blocks_per_stage} (memory constraint)"
        )

    if placement.backplane_units > switch.capacity_units:
        problems.append(
            f"backplane load {placement.backplane_gbps:.1f} Gbps exceeds "
            f"capacity "
            f"{switch.capacity_gbps:.1f} Gbps (constraint 12)"
        )
    return problems
