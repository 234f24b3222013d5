"""Resolvent identities: commutator vanishing, algebra relations, cross-solver."""

import random

import pytest

from aknsd.hierarchy import (
    HierarchyState,
    commutator_with_l,
    resolvent_direct,
    resolvent_dressed,
)
from aknsd.instances import (
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries, series_mul
from helpers import RAT


DEPTH = 5


def solved(m, seed=None, potential=None):
    data = desk_data(m)
    if potential is None:
        rng = random.Random(seed)
        potential = random_potential(DESK_WINDOW, data, rng)
    return HierarchyState.solve(data, potential, DESK_WINDOW, DEPTH)


def max_abs_lattice_series(f):
    return max((f.at(n).max_abs() for n in f.sites()), default=0)


def test_vacuum_resolvent_is_projector():
    state = HierarchyState.solve(
        desk_data(2), vacuum_potential(DESK_WINDOW, 2), DESK_WINDOW, DEPTH
    )
    r = resolvent_dressed(state, 1)
    e1 = state.data.projector(1)
    for n in r.series.sites():
        s = r.series.at(n)
        assert s.get(0) == e1
        for d in range(-DEPTH, 0):
            assert s.get(d).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_commutator_with_l_annihilates_resolvent(m):
    state = solved(m, seed=m)
    for alpha in range(1, m + 1):
        r = state.resolvent(alpha)
        comm = commutator_with_l(r.series, state.data, state.U)
        # valid through depth-1 orders below the top degree z^1
        assert max_abs_lattice_series(comm) == 0


def test_resolvent_zero_order_everywhere():
    state = solved(3, seed=9)
    for alpha in (1, 2, 3):
        r = state.resolvent(alpha)
        for n in r.series.sites():
            assert r.series.at(n).get(0) == state.data.projector(alpha)


@pytest.mark.parametrize("m", [2, 3])
def test_resolvent_product_algebra(m):
    state = solved(m, seed=m + 10)
    rs = {a: state.resolvent(a).series for a in range(1, m + 1)}
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            prod = rs[a].zip_with(rs[b], series_mul)
            for n in prod.sites():
                got = prod.at(n)
                expect = rs[b].at(n) if a == b else None
                for d in range(-DEPTH, 1):
                    want = expect.get(d) if expect else SmallMatrix.zero(m, RAT)
                    assert got.get(d) == want


@pytest.mark.parametrize("m", [2, 3])
def test_resolvents_sum_to_identity(m):
    state = solved(m, seed=m + 20)
    total = state.resolvent(1).series
    for a in range(2, m + 1):
        total = total + state.resolvent(a).series
    ident = SmallMatrix.identity(m, RAT)
    for n in total.sites():
        s = total.at(n)
        assert s.get(0) == ident
        for d in range(-DEPTH, 0):
            assert s.get(d).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_cross_solver_equality(m):
    state = solved(m, seed=m + 30)
    for alpha in range(1, m + 1):
        dressed = resolvent_dressed(state, alpha)
        direct = resolvent_direct(state.data, state.U, alpha, DEPTH)
        assert dressed.series.lo == direct.series.lo
        assert dressed.series.hi == direct.series.hi
        for n in dressed.series.sites():
            a, b = dressed.series.at(n), direct.series.at(n)
            for d in range(-DEPTH, 1):
                assert a.get(d) == b.get(d), (alpha, n, d)


def test_cross_solver_equality_impulse():
    data = desk_data(2)
    U = impulse_potential(DESK_WINDOW, 2)
    state = HierarchyState.solve(data, U, DESK_WINDOW, DEPTH)
    dressed = resolvent_dressed(state, 2)
    direct = resolvent_direct(data, U, 2, DEPTH)
    for n in dressed.series.sites():
        for d in range(-DEPTH, 1):
            assert dressed.series.at(n).get(d) == direct.series.at(n).get(d)


def test_linearity_of_resolvent_combinations():
    # c(z) R1 + f(z) R2 is annihilated by the commutator with L
    state = solved(2, seed=77)
    r1 = state.resolvent(1).series
    r2 = state.resolvent(2).series
    ident = SmallMatrix.identity(2, RAT)
    c = MatSeries.from_coeffs({0: ident.scale(2), -1: ident.scale(-1),
                               -2: ident.scale(3)}, 2, RAT)
    f = MatSeries.from_coeffs({0: ident, -2: ident.scale(5)}, 2, RAT)

    combo = r1.map(lambda s: series_mul(c, s), map_tails=False).zip_with(
        r2.map(lambda s: series_mul(f, s), map_tails=False), lambda a, b: a + b
    )
    comm = commutator_with_l(combo, state.data, state.U)
    assert max_abs_lattice_series(comm) == 0
