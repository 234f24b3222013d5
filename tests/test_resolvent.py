"""Resolvent identities: commutator vanishing, algebra relations, cross-solver.

The verifier's residuals reduce the state's entry columns
(``commutator_residual``, ``product_algebra_residual``,
``sum_identity_residual``, ``dressing_residual`` and
``baker.difference_transfer_residual``); each is held to the same identity
formed on the public lattices of series, value for value in both modes.
"""

import json
from pathlib import Path
import random

import pytest

from aknsd.baker import bilinear_expression, difference_transfer_residual
from aknsd.config import parse_config
from aknsd.hierarchy import (
    Dressing,
    HierarchyState,
    commutator_residual,
    commutator_with_l,
    dressing_residual,
    product_algebra_residual,
    resolvent_direct,
    resolvent_dressed,
    sum_identity_residual,
)
from aknsd.instances import (
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from aknsd.lattice import LatticeFn, site_max
from aknsd import scalars
from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries, series_diff_max, series_mul
from helpers import RAT, ref_dressing_defect

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        r = resolvent_dressed(state, alpha)
        comm = commutator_with_l(r.series, state.data, state.U)
        # valid through depth-1 orders below the top degree z^1
        assert max_abs_lattice_series(comm) == 0


def test_resolvent_zero_order_everywhere():
    state = solved(3, seed=9)
    for alpha in (1, 2, 3):
        r = resolvent_dressed(state, alpha)
        for n in r.series.sites():
            assert r.series.at(n).get(0) == state.data.projector(alpha)


@pytest.mark.parametrize("m", [2, 3])
def test_resolvent_product_algebra(m):
    state = solved(m, seed=m + 10)
    rs = {a: resolvent_dressed(state, a).series for a in range(1, m + 1)}
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
    total = resolvent_dressed(state, 1).series
    for a in range(2, m + 1):
        total = total + resolvent_dressed(state, a).series
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
    r1 = resolvent_dressed(state, 1).series
    r2 = resolvent_dressed(state, 2).series
    ident = SmallMatrix.identity(2, RAT)
    c = MatSeries.from_coeffs({0: ident.scale(2), -1: ident.scale(-1),
                               -2: ident.scale(3)}, 2, RAT)
    f = MatSeries.from_coeffs({0: ident, -2: ident.scale(5)}, 2, RAT)

    combo = r1.map(lambda s: series_mul(c, s), map_tails=False).zip_with(
        r2.map(lambda s: series_mul(f, s), map_tails=False), lambda a, b: a + b
    )
    comm = commutator_with_l(combo, state.data, state.U)
    assert max_abs_lattice_series(comm) == 0


# -- the verifier's residuals on entry columns -----------------------------------------


def _desk_state(name, mode):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    return parse_config(json.dumps({**doc, "mode": mode})).solve()


def _public_residuals(state):
    """Each residual formed on the public lattices of series, site by site."""
    data, U, m, mode = state.data, state.U, state.data.m, state.mode
    rs = [resolvent_dressed(state, a).series for a in range(1, m + 1)]
    zero = MatSeries.zero(m, mode)
    algebra = [site_max(ra.zip_with(rb, lambda x, y, d=(a == b): series_mul(x, y) -
                                    (y if d else zero)))
               for a, ra in enumerate(rs) for b, rb in enumerate(rs)]
    total = rs[0]
    for r in rs[1:]:
        total = total.zip_with(r, lambda x, y: x + y)
    ident = MatSeries.constant(SmallMatrix.identity(m, mode))
    expr = bilinear_expression(state, 1, ())
    transfer = [v for n in expr.sites()
                for v in ((expr.at(n).get(1) - data.matrix).max_abs(),
                          (expr.at(n).get(0) + U.at(n)).max_abs())]
    return {
        "commutator": [site_max(commutator_with_l(r, data, U)) for r in rs],
        "product_algebra": scalars.max_of(algebra, mode),
        "sum_identity": site_max(total, lambda s: series_diff_max(s, ident)),
        "dressing": site_max(ref_dressing_defect(state)),
        "transfer": scalars.max_of(transfer, mode),
    }


def _column_residuals(state):
    return {
        "commutator": [commutator_residual(state, a) for a in range(1, state.data.m + 1)],
        "product_algebra": product_algebra_residual(state),
        "sum_identity": sum_identity_residual(state),
        "dressing": dressing_residual(state),
        "transfer": difference_transfer_residual(state),
    }


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("name", ["desk_m2", "desk_m3"])
def test_column_residuals_are_their_public_lattice_forms(name, mode):
    state = _desk_state(name, mode)
    got, want = _column_residuals(state), _public_residuals(state)
    assert repr(got) == repr(want)
    if mode == "rational":
        assert all(v == 0 for v in got["commutator"])
        assert all(got[k] == 0 for k in got if k != "commutator")


def _bumped_order(state, k, site):
    """The state with unit (1, 2) added to dressing order k + 1 at ``site``."""
    w = state.dressing.ws[k]
    bump = SmallMatrix.unit(state.data.m, 1, 2, state.mode)
    vals = tuple(v + bump if n == site else v for n, v in zip(w.sites(), w.values))
    ws = list(state.dressing.ws)
    ws[k] = LatticeFn(w.lo, w.hi, vals, w.left_tail, w.right_tail, w.step, w.mode)
    return HierarchyState(state.data, state.U, state.window,
                          Dressing(state.depth, tuple(ws), state.dressing.conventions))


@pytest.mark.parametrize("name", ["desk_m2", "desk_m3"])
def test_column_residuals_see_a_bumped_dressing(name):
    state = _desk_state(name, RAT)
    bad = _bumped_order(state, 0, 0)
    got, want = _column_residuals(bad), _public_residuals(bad)
    assert got == want
    assert max(got["commutator"]) > 0
    assert got["dressing"] > 0 and got["transfer"] > 0
    # R_a R_b = delta_ab R_b and the sum rule hold for any invertible w_hat, so a
    # bumped order leaves them exact; a bumped inverse breaks both
    assert got["product_algebra"] == got["sum_identity"] == 0
    bad = _desk_state(name, RAT)
    inv = bad._columns.hat_inverse
    bad._columns.hat_inverse = inv + inv.constant(
        MatSeries.monomial(SmallMatrix.unit(bad.data.m, 1, 2, RAT), -1))
    assert product_algebra_residual(bad) > 0
    assert sum_identity_residual(bad) > 0
