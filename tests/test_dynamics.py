"""Time-evolution tests: integrator order, closed forms, commutativity."""

from fractions import Fraction
import math
import random

import pytest

from aknsd import dynamics, scalars
from aknsd.dynamics import (
    CONSISTENCY_TOL,
    FlowIndex,
    commutativity_defect,
    gaussian_bump_profile,
    integrate,
    make_field_fn,
    rk4_evolve,
    rk4_step,
)
from aknsd.errors import ConsistencyError, ModeError
from aknsd.hierarchy import HierarchyState, flow_field, make_potential
from aknsd.instances import DESK_WINDOW, desk_data, random_potential, vacuum_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from helpers import RAT, ref_axpy

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
    monkeypatch.setattr(dynamics, "rk4_step", lambda v, h, fn: u)
    with pytest.raises(ConsistencyError, match="non-finite potential at step 1"):
        integrate(data, u, window, FlowIndex(1, 1), 0.05, 3)


def test_rk4_step_on_a_rational_lattice_is_exact():
    # the fused float update leaves the rational ring operations in place
    data = desk_data(2)
    window = Window(-2, 2, 2)
    u = random_potential(window, data, random.Random(4), span=1)
    field_fn = make_field_fn(data, FlowIndex(1, 1))
    h = Fraction(1, 10)
    k1 = field_fn(u)
    k2 = field_fn(ref_axpy(u, h / 2, k1))
    k3 = field_fn(ref_axpy(u, h / 2, k2))
    k4 = field_fn(ref_axpy(u, h, k3))
    want = u
    for c, k in ((h / 6, k1), (h / 3, k2), (h / 3, k3), (h / 6, k4)):
        want = ref_axpy(want, c, k)
    got = rk4_step(u, h, field_fn)
    assert got.mode == RAT and (got.lo, got.hi) == (want.lo, want.hi)
    assert got.values == want.values
    assert not all(v.is_zero() for v in (got - u).values)
    assert all(isinstance(x, Fraction) for v in got.values for row in v.rows for x in row)
