"""Tests for the unified solve() dispatcher and the scipy backend adapter."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import Model, Objective, SolveStatus, solve
from repro.lp.solver import AUTO_OWN_MAX_VARS


def _toy_mip():
    m = Model()
    a = m.add_var("a", binary=True)
    b = m.add_var("b", binary=True)
    m.add_constr(a + b <= 1)
    m.set_objective(3 * a + 2 * b, Objective.MAXIMIZE)
    return m, a, b


def test_unknown_backend_rejected():
    m, *_ = _toy_mip()
    with pytest.raises(SolverError):
        solve(m, backend="gurobi")


def test_auto_uses_own_for_tiny_models():
    m, a, b = _toy_mip()
    sol = solve(m, backend="auto")
    assert sol.backend.startswith("own")
    assert sol.objective == pytest.approx(3.0)


def test_auto_uses_scipy_for_large_models():
    m = Model()
    xs = [m.add_var(f"x{i}", binary=True) for i in range(AUTO_OWN_MAX_VARS + 1)]
    m.add_constr(sum(xs[:3]) <= 2)
    m.set_objective(sum(xs), Objective.MAXIMIZE)
    sol = solve(m, backend="auto")
    assert sol.backend.startswith("scipy")


def test_relax_flag_drops_integrality():
    m = Model()
    x = m.add_var("x", lb=0, ub=10, integer=True)
    m.add_constr(2 * x <= 5)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    assert solve(m, backend="scipy", relax=True).objective == pytest.approx(2.5)
    assert solve(m, backend="scipy").objective == pytest.approx(2.0)


def test_objective_constant_round_trip():
    m = Model()
    x = m.add_var("x", lb=0, ub=1)
    m.set_objective(x + 100, Objective.MAXIMIZE)
    for backend in ("own", "scipy"):
        sol = solve(m, backend=backend)
        assert sol.objective == pytest.approx(101.0)


def test_scipy_milp_infeasible():
    m = Model()
    x = m.add_var("x", binary=True)
    y = m.add_var("y", binary=True)
    m.add_constr(x + y >= 3)
    m.set_objective(x + y, Objective.MAXIMIZE)
    sol = solve(m, backend="scipy")
    assert sol.status is SolveStatus.INFEASIBLE


def test_scipy_lp_unbounded():
    m = Model()
    x = m.add_var("x")
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m, backend="scipy")
    assert sol.status is SolveStatus.UNBOUNDED


def test_solution_value_and_as_dict():
    m, a, b = _toy_mip()
    sol = solve(m, backend="scipy")
    assert sol.value(a) == pytest.approx(1.0)
    assert sol.value(3 * a + 2 * b) == pytest.approx(3.0)
    d = sol.as_dict(m)
    assert d["a"] == pytest.approx(1.0)


def test_solution_access_without_values_raises():
    from repro.errors import InfeasibleError

    m = Model()
    x = m.add_var("x", binary=True)
    m.add_constr(x >= 2)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m, backend="scipy")
    with pytest.raises(InfeasibleError):
        _ = sol[x]
    with pytest.raises(InfeasibleError):
        sol.as_dict(m)


def test_scipy_time_limit_accepts_incumbent_or_nothing():
    rng = np.random.default_rng(5)
    m = Model()
    n = 40
    xs = [m.add_var(f"x{i}", binary=True) for i in range(n)]
    w = rng.integers(5, 40, size=n)
    v = rng.integers(5, 40, size=n)
    m.add_constr(sum(int(wi) * x for wi, x in zip(w, xs)) <= int(w.sum() // 3))
    m.set_objective(sum(int(vi) * x for vi, x in zip(v, xs)), Objective.MAXIMIZE)
    sol = solve(m, backend="scipy", time_limit=10.0)
    assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)
    if sol.is_feasible:
        assert m.check_feasible(sol.values) == []


def test_backends_agree_on_equality_heavy_model():
    m = Model()
    x = m.add_var("x", lb=0, ub=4, integer=True)
    y = m.add_var("y", lb=0, ub=4, integer=True)
    z = m.add_var("z", lb=0, ub=8)
    m.add_constr(x + y == 4)
    m.add_constr(z == 2 * x)
    m.set_objective(z + y, Objective.MAXIMIZE)
    a = solve(m, backend="own")
    b = solve(m, backend="scipy")
    assert a.objective == pytest.approx(b.objective)
    assert a.objective == pytest.approx(8.0)  # x=4,y=0,z=8


def test_runtime_subsystems_import_without_scipy():
    """scipy loads only when an LP is solved: the fabric, front end,
    durability and fast path never pay for it."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "import repro.fabric, repro.frontend, repro.durability, repro.fastpath\n"
        "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
