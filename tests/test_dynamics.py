"""Time-evolution tests: integrator order, closed forms, commutativity."""

import math
from pathlib import Path
import random
import re

import pytest

from aknsd import dynamics, scalars
from aknsd.dynamics import (
    CONSISTENCY_TOL,
    FlowIndex,
    commutativity_defect,
    gaussian_bump_profile,
    integrate,
    interior_diff_max,
    observed_order,
    rk4_evolve,
    rk4_step,
)
from aknsd.config import parse_config
from aknsd.errors import ConsistencyError, DimensionError, ModeError
from aknsd.hierarchy import HierarchyState, flow_field, make_potential
from aknsd.instances import DESK_WINDOW, desk_data, random_potential, vacuum_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FLOAT = scalars.FLOAT
WINDOW = Window(-6, 6, 5)
DEPTH = 3


def float_state(seed=0, amplitude=0.5, m=2, window=WINDOW, depth=DEPTH):
    data = desk_data(m, FLOAT)
    rng = random.Random(seed)
    u = random_potential(window, data, rng, span=3)
    u = u.map(lambda v: v.scale(amplitude))
    return HierarchyState.solve(data, u, window, depth, validate=False)


def test_vacuum_trajectory_constant():
    data = desk_data(2, FLOAT)
    state = HierarchyState.solve(data, vacuum_potential(WINDOW, 2, FLOAT), WINDOW, DEPTH)
    traj = rk4_evolve(state, FlowIndex(1, 1), 0.05, 5)
    for _, u in traj.snapshots:
        assert all(u.at(n).is_zero() for n in u.sites())


def test_rational_mode_rejected():
    data = desk_data(2)
    state = HierarchyState.solve(data, vacuum_potential(WINDOW, 2), WINDOW, DEPTH)
    with pytest.raises(ModeError):
        rk4_evolve(state, FlowIndex(0, 1), 0.1, 1)


def test_one_step_vs_euler_is_second_order():
    # || Phi_h(U) - U - h F(U) || = O(h^2), verified by a Richardson ratio
    state = float_state(seed=3)
    f0 = flow_field(state.data, state.U, 1, 1, tol=CONSISTENCY_TOL)

    def defect(h):
        u1 = rk4_step(state.data, state.U, h, FlowIndex(1, 1))
        euler = state.U.zip_with(f0, lambda a, b: a + b.scale(h))
        return max((u1.at(n) - euler.at(n)).max_abs()
                   for n in range(state.window.n_min, state.window.n_max + 1))

    d1, d2 = defect(0.02), defect(0.01)
    order = math.log2(d1 / d2)
    assert order > 1.7


def test_k0_flow_is_exact_conjugation():
    # dU/dt = [E_alpha, U] integrates to entrywise phases exp(t(d_i - d_j))
    # with d = delta_{., alpha}; RK4 must match to its order
    state = float_state(seed=4, amplitude=0.3)
    t_total, steps = 0.2, 20
    traj = rk4_evolve(state, FlowIndex(0, 1), t_total / steps, steps)
    final = traj.final
    for n in range(state.window.n_min, state.window.n_max + 1):
        u0 = state.U.at(n)
        got = final.at(n)
        for i in range(2):
            for j in range(2):
                d_i = 1.0 if i == 0 else 0.0
                d_j = 1.0 if j == 0 else 0.0
                expect = u0.rows[i][j] * math.exp(t_total * (d_i - d_j))
                assert got.rows[i][j] == pytest.approx(expect, abs=1e-10)


def test_commutativity_same_k_zero_flows():
    # (0,1) vs (0,2): simultaneous conjugations by commuting diagonal
    # exponentials; defect at integrator-error level only
    state = float_state(seed=5, amplitude=0.4)
    defect, _ = commutativity_defect(state.data, state.U, state.window,
                                     FlowIndex(0, 1), FlowIndex(0, 2), 0.02, 5)
    assert defect < 1e-12


def test_commutativity_higher_flows():
    state = float_state(seed=6, amplitude=0.5)
    defect, order = commutativity_defect(state.data, state.U, state.window,
                                         FlowIndex(1, 1), FlowIndex(0, 2), 0.05, 4)
    assert defect < 1e-6
    assert order >= 2.0


def _nan_potential():
    """desk_m2 in float mode on a small window, with a nan at (1,2) of the middle site."""
    data = desk_data(2, FLOAT)
    window = Window(-3, 3, 3)
    u = random_potential(window, data, random.Random(1), span=2).map(lambda v: v.scale(0.1))
    rows = [list(r) for r in u.at(0).rows]
    rows[0][1] = math.nan
    bad = SmallMatrix(2, FLOAT, tuple(map(tuple, rows)))
    values = tuple(bad if n == 0 else u.at(n) for n in u.sites())
    return data, window, LatticeFn.from_values(u.lo, values)


def test_a_nan_potential_is_refused():
    data, window, u = _nan_potential()
    with pytest.raises(ConsistencyError, match="positive z-degrees"):
        flow_field(data, u, 1, 1, tol=CONSISTENCY_TOL)
    with pytest.raises(ConsistencyError):
        integrate(data, u, window, FlowIndex(1, 1), 0.05, 3)


def test_a_non_finite_step_result_is_refused(monkeypatch):
    # the leakage monitor refuses a potential that is not finite, whatever
    # its boundary-to-interior ratio
    data, window, u = _nan_potential()
    monkeypatch.setattr(dynamics, "rk4_step", lambda data, v, h, flow: u)
    with pytest.raises(ConsistencyError, match="non-finite potential at step 1"):
        integrate(data, u, window, FlowIndex(1, 1), 0.05, 3)


def test_rk4_step_refuses_a_rational_lattice():
    # time stepping is float only: a rational potential is refused up front,
    # with the error integrate raises, whatever the instance's mode
    window = Window(-2, 2, 2)
    for mode in (scalars.RATIONAL, FLOAT):
        data = desk_data(2, mode)
        u = random_potential(window, desk_data(2), random.Random(4), span=1)
        with pytest.raises(ModeError, match="time evolution requires float mode"):
            rk4_step(data, u, 0.1, FlowIndex(1, 1))


def test_an_error_grown_from_zero_fails_every_order_check():
    # a zero coarse error that grows is no convergence: -inf, not inf
    assert observed_order(0.0, 1e-3) == -math.inf
    assert observed_order(1e-3, 0.0) == math.inf
    assert observed_order(0.0, 0.0) == math.inf
    assert observed_order(4.0, 1.0) == 2.0
    for a, b in ((math.nan, 1.0), (0.0, math.nan), (math.nan, 0.0)):
        assert math.isnan(observed_order(a, b))


def test_a_claim_on_sites_outside_the_stored_range_is_refused():
    # the potential is stored on -5..5; a window reaching -20..20 would read
    # its tails as data, and its leakage "interior" would cover the edges
    data = desk_data(2, FLOAT)
    u = random_potential(Window(-2, 2, 3), data, random.Random(2), span=2)
    u = u.map(lambda v: v.scale(0.1))
    wide = Window(-20, 20, 3)
    with pytest.raises(DimensionError, match="outside the stored range"):
        integrate(data, u, wide, FlowIndex(1, 1), 0.01, 2)
    with pytest.raises(DimensionError, match="outside the stored range"):
        interior_diff_max(u, u, wide)
    assert interior_diff_max(u, u, Window(-5, 5, 0)) == 0.0


@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_hard_boundary_leakage_is_refused():
    # the benchmark's desk_m2 (2,2) item: the tied pair's non-decaying field
    # reaches the stored edge, and the step that passes LEAK_HARD is refused
    config = parse_config((CONFIGS / "desk_m2.json").read_text())
    data = config.data(FLOAT)
    rng = random.Random("float_evolution/desk_m2/2,2")
    u = random_potential(config.window, data, rng, span=3).map(lambda v: v.scale(0.1))
    msg = "boundary leakage 1.1971507360786107 exceeds hard limit at step 3"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(msg)}$"):
        integrate(data, u, config.window, FlowIndex(2, 2), config.h, config.steps)
