"""Unified solver entry point.

:func:`solve` is the only function the placement layer calls.  It exports the
model once, dispatches to a backend, and maps the minimization-convention
result back to the model's objective sense.

Backends:

* ``"scipy"`` — HiGHS via scipy (default for anything non-trivial),
* ``"own"`` — the from-scratch simplex + branch & bound,
* ``"auto"`` — ``own`` for tiny models (useful to exercise the in-tree
  solver continuously), ``scipy`` otherwise.
"""

from __future__ import annotations

import time

from repro.errors import SolverError
from repro.lp import branch_and_bound, simplex
from repro.lp.model import Model
from repro.lp.status import Solution, SolveStatus

#: Models at or below this many variables are routed to the own backend
#: under ``backend="auto"``.
AUTO_OWN_MAX_VARS = 60


def _finalize(model: Model, solution: Solution, sign: float, constant: float) -> Solution:
    """Map objective/bound from minimization space back to the model's sense."""
    if solution.objective is not None:
        solution.objective = sign * solution.objective + constant
    if solution.bound is not None:
        solution.bound = sign * solution.bound + constant
    return solution


def solve(
    model: Model,
    backend: str = "auto",
    relax: bool = False,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
) -> Solution:
    """Solve ``model`` and return a :class:`~repro.lp.status.Solution`.

    Parameters
    ----------
    model:
        The model to solve.
    backend:
        ``"auto"``, ``"scipy"`` or ``"own"``.
    relax:
        Solve the LP relaxation (drop all integrality).  This is Algorithm
        1's ``LP()`` step.
    time_limit:
        Wall-clock limit in seconds for MILP solves.  On expiry the best
        incumbent found so far is returned with status ``TIME_LIMIT``.
    mip_gap:
        Relative optimality gap at which MILP search stops.
    """
    if backend not in ("auto", "scipy", "own"):
        raise SolverError(f"unknown backend {backend!r}")
    form = model.to_arrays()
    if relax:
        form.integrality[:] = False
    is_mip = bool(form.integrality.any())

    if backend == "auto":
        backend = "own" if model.num_vars <= AUTO_OWN_MAX_VARS else "scipy"

    if not is_mip:
        start = time.perf_counter()
        if backend == "own":
            lp = simplex.solve_dense_form(form)
        else:
            # scipy loads only when an LP is actually solved: importing it
            # costs ~0.6 s and ~44 MiB that control-plane-only users never
            # need.
            from repro.lp import scipy_backend

            lp = scipy_backend.solve_lp_scipy(form)
        solution = Solution(
            status=lp.status,
            objective=lp.objective,
            values=lp.x,
            solve_seconds=time.perf_counter() - start,
            iterations=lp.iterations,
            backend=f"{backend}-lp",
        )
        if lp.status is SolveStatus.OPTIMAL:
            solution.bound = lp.objective
        return _finalize(model, solution, form.sign, form.objective_constant)

    if backend == "own":
        solution = branch_and_bound.solve_milp(
            form, time_limit=time_limit, mip_gap=mip_gap
        )
    else:
        from repro.lp import scipy_backend

        solution = scipy_backend.solve_milp_scipy(form, time_limit=time_limit, mip_gap=mip_gap)
    return _finalize(model, solution, form.sign, form.objective_constant)
