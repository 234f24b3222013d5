"""Flow-field tests: closed forms, degree checks, and the diagonal drift."""

import random

import pytest

from aknsd.errors import ValidityError
from aknsd.hierarchy import (
    Dressing,
    HierarchyState,
    commutator_with_l,
    diagonal_drift,
    flow_field,
    projector_b,
    resolvent_dressed,
)
from aknsd.instances import (
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    make_potential,
    random_potential,
    random_triangular_potential,
    vacuum_potential,
)
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries
from helpers import RAT, mat


def _dressed_commutator(state, k, alpha):
    """[B_{k alpha}, L]_D with B taken from the dressed resolvent w E w^{-1}."""
    b, _ = projector_b(resolvent_dressed(state, alpha), k)
    return commutator_with_l(b, state.data, state.U)


def test_vacuum_flows_are_zero():
    U = vacuum_potential(DESK_WINDOW, 2)
    for k in (0, 1, 2):
        for alpha in (1, 2):
            f = flow_field(desk_data(2), U, k, alpha)
            assert all(f.at(n).is_zero() for n in f.sites())


@pytest.mark.parametrize("m", [2, 3])
def test_flow_matches_dressed_oracle(m):
    # the direct-recursion field equals the degree-0 part of [B, L]_D with B
    # built from the dressed resolvent, entry for entry, and the dressed
    # commutator has no positive degrees either
    data = desk_data(m)
    U = random_potential(DESK_WINDOW, data, random.Random(m + 60))
    state = HierarchyState.solve(data, U, DESK_WINDOW, 5)
    for k in (0, 1, 2):
        for alpha in range(1, m + 1):
            f = flow_field(data, U, k, alpha)
            comm = _dressed_commutator(state, k, alpha)
            assert (f.lo, f.hi) == (comm.lo, comm.hi)
            for n in f.sites():
                assert f.at(n) == comm.at(n).get(0), (k, alpha, n)
                assert all(comm.at(n).get(d).is_zero()
                           for d in range(1, comm.at(n).hi + 1))


@pytest.mark.parametrize("m", [2, 3])
def test_k0_flow_closed_form(m):
    # B_{0 alpha} = E_alpha, so the field must be the matrix commutator
    # [E_alpha, U] entry for entry, and its diagonal vanishes for any U.
    data = desk_data(m)
    rng = random.Random(m)
    U = random_potential(DESK_WINDOW, data, rng)
    for alpha in range(1, m + 1):
        e = data.projector(alpha)
        f = flow_field(data, U, 0, alpha)
        for n in f.sites():
            assert f.at(n) == (e @ U.at(n)) - (U.at(n) @ e)


def test_k0_flow_m2_explicit():
    # U = [[0, q], [r, 0]], alpha = 1: [E_1, U] = [[0, q], [-r, 0]]
    q, r = 3, 5
    U = make_potential(DESK_WINDOW, {0: mat([[0, q], [r, 0]])}, 2)
    f = flow_field(desk_data(2), U, 0, 1)
    assert f.at(0) == mat([[0, q], [-r, 0]])
    assert all(f.at(n).is_zero() for n in f.sites() if n != 0)


@pytest.mark.parametrize("m", [2, 3])
def test_positive_degrees_vanish_on_generic_potentials(m):
    # the positive-degree part of [B, L]_D vanishes exactly for any
    # potential (checked inside flow_field); only the degree-0 diagonal is
    # potential-dependent
    data = desk_data(m)
    rng = random.Random(m + 40)
    U = random_potential(DESK_WINDOW, data, rng)
    for k in (0, 1, 2):
        for alpha in range(1, m + 1):
            field = flow_field(data, U, k, alpha)
            assert field is not None


@pytest.mark.parametrize("m", [2, 3])
def test_diagonal_vanishes_on_triangular_potentials(m):
    data = desk_data(m)
    rng = random.Random(m + 50)
    U = random_triangular_potential(DESK_WINDOW, data, rng)
    for k in (0, 1, 2):
        for alpha in range(1, m + 1):
            assert diagonal_drift(flow_field(data, U, k, alpha)) == 0


def test_diagonal_drift_on_two_sided_potential():
    # with impulses in both triangles the k=1 field carries the exact drift
    # Delta(w12 * w21) on its diagonal, localized where the product jumps
    U = make_potential(
        DESK_WINDOW, {0: mat([[0, 1], [0, 0]]), 5: mat([[0, 0], [1, 0]])}, 2
    )
    f = flow_field(desk_data(2), U, 1, 1)
    assert diagonal_drift(f) > 0
    drift_sites = [n for n in f.sites() if not f.at(n).diagonal_part().is_zero()]
    assert drift_sites == [5]
    assert f.at(5).get(1, 1) == 1
    assert f.at(5).get(2, 2) == 1


def test_k1_impulse_field_matches_extended_reconstruction():
    # recompute with a wider window and a larger halo; the field on the
    # common claimable sites must agree coefficient for coefficient with the
    # desk computation
    data = desk_data(2)
    f = flow_field(data, impulse_potential(DESK_WINDOW, 2), 1, 1)
    assert diagonal_drift(f) == 0

    big_window = Window(-8, 8, 14)
    f_big = flow_field(data, impulse_potential(big_window, 2), 1, 1)
    for n in f.sites():
        assert f.at(n) == f_big.at(n)


def test_flow_depth_precondition():
    data = desk_data(2)
    U = impulse_potential(DESK_WINDOW, 2)
    flow_field(data, U, 0, 1)
    with pytest.raises(ValidityError):
        flow_field(data, U, -1, 1)


def test_wrong_dressing_trips_positive_degree_check():
    # B_{1 alpha} of the dressed oracle involves dressing orders <= 1, so a
    # w_1 perturbation must surface in the positive-degree part of its
    # commutator
    data = desk_data(2)
    U = impulse_potential(DESK_WINDOW, 2)
    state = HierarchyState.solve(data, U, DESK_WINDOW, 4)
    w1 = state.dressing.ws[0]
    bump = SmallMatrix.unit(2, 1, 2, RAT)
    vals = tuple(v + bump if n == 1 else v for n, v in zip(w1.sites(), w1.values))
    tampered = Dressing(
        state.depth,
        (LatticeFn(w1.lo, w1.hi, vals, w1.left_tail, w1.right_tail, w1.step, w1.mode),)
        + state.dressing.ws[1:],
        state.dressing.conventions,
    )
    bad = HierarchyState(data, U, DESK_WINDOW, tampered)
    comm = _dressed_commutator(bad, 1, 1)
    assert any(not comm.at(n).get(d).is_zero()
               for n in comm.sites() for d in range(1, comm.at(n).hi + 1))


def test_commutator_of_constant_basis_matrix():
    # by-hand expansion: P = E_12, m=2, A=diag(1,-1), U=0 gives
    # [P, L]_D = -z (a_2 - a_1) E_12 = 2 z E_12
    data = desk_data(2)
    U = vacuum_potential(DESK_WINDOW, 2)
    e12 = MatSeries.constant(mat([[0, 1], [0, 0]]))
    lo, hi = U.lo, U.hi
    P = LatticeFn(lo, hi, tuple(e12 for _ in range(hi - lo + 1)),
                  MatSeries.zero(2, RAT), MatSeries.zero(2, RAT), None, RAT)
    comm = commutator_with_l(P, data, U)
    expect = mat([[0, 2], [0, 0]])
    for n in comm.sites():
        s = comm.at(n)
        assert s.get(1) == expect
        assert s.get(0).is_zero()
