"""Time-evolution tests: integrator order, closed forms, commutativity."""

import math
import random

import pytest

from aknsd import scalars
from aknsd.dynamics import (
    FlowIndex,
    commutativity_defect,
    gaussian_bump_profile,
    make_field_fn,
    rk4_evolve,
    rk4_step,
)
from aknsd.errors import ModeError
from aknsd.hierarchy import HierarchyState, make_potential
from aknsd.instances import DESK_WINDOW, desk_data, random_potential, vacuum_potential
from aknsd.lattice import Window
from aknsd.matrices import SmallMatrix

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
    field_fn = make_field_fn(state.data, FlowIndex(1, 1))
    f0 = field_fn(state.U)

    def defect(h):
        u1 = rk4_step(state.U, h, field_fn)
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
