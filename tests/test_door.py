"""A lattice is checked once, when it is built, and a potential against its instance.

Every value and both tails of a ``LatticeFn`` share one type, one dimension
and the lattice's mode; a potential has the instance's dimension and mode; a
state's potential lives on its window's stored sites, and each dressing
order on the potential's sites, in its mode, dimension and step.  Each case
below breaks one of these and is refused with a ``DimensionError`` or a
``ModeError``, which the command line maps to exit status 2 like every input
error.  Before these checks each case was accepted, failed only later (a
float order in a rational state, when the dressing series was first read),
or escaped as an ``AttributeError`` (a rational potential of a float
instance; series values with matrix tails in the commutator).
"""

from fractions import Fraction

import pytest

from aknsd import scalars
from aknsd.errors import DimensionError, ModeError
from aknsd.hierarchy import (Dressing, HierarchyState, commutator_with_l, flow_field,
                             resolvent_direct, solve_dressing)
from aknsd.instances import desk_data
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries

RAT, FLOAT = scalars.RATIONAL, scalars.FLOAT
MODES = (RAT, FLOAT)
WINDOW = Window(-1, 1, 2)  # stored sites -3..3
DEPTH = 2


def _potential(mode, *, last=None, tail=None):
    """An m = 2 potential on -3..3 with one nonzero site; ``last`` replaces the value
    at the last site, ``tail`` the right tail."""
    zero = SmallMatrix.zero(2, mode)
    vals = [zero] * 7
    vals[3] = SmallMatrix.from_rows([[0, 1], [2, 0]], mode)
    if last is not None:
        vals[-1] = last
    return LatticeFn(-3, 3, tuple(vals), zero, zero if tail is None else tail, None, mode)


def _state_with_order(order, U=None, window=WINDOW):
    """A rational m = 2 state of ``U`` (default ``_potential``) whose one dressing order
    is ``order``."""
    data = desk_data(2)
    return HierarchyState(data, _potential(RAT) if U is None else U, window,
                          Dressing(1, (order,), data.conventions()))


def _order(mode=RAT, lo=-3, hi=3, m=2, step=None):
    return LatticeFn.from_values(lo, [SmallMatrix.zero(m, mode)] * (hi - lo + 1), step=step)


_OPS = {
    "solve_dressing": lambda data, U: solve_dressing(data, U, DEPTH),
    "resolvent_direct": lambda data, U: resolvent_direct(data, U, 1, DEPTH),
    "flow_field": lambda data, U: flow_field(data, U, 1, 1, tol=1e-8),
    "state": lambda data, U: HierarchyState.solve(data, U, WINDOW, DEPTH),
}


def _wrong_site(op, mode, where):
    three = SmallMatrix.zero(3, mode)
    return lambda: _OPS[op](desk_data(2, mode), _potential(mode, **{where: three}))


def _cases():
    for mode in MODES:
        for op in _OPS:
            yield f"{op}-{mode}-3x3-last-site", _wrong_site(op, mode, "last")
        # the float flow field already read the tails; the other operations never did
        for op in ("solve_dressing", "resolvent_direct", "state"):
            yield f"{op}-{mode}-3x3-tail", _wrong_site(op, mode, "tail")
    yield "from_values-mixed-dimensions", lambda: LatticeFn.from_values(
        0, [SmallMatrix.zero(2, RAT), SmallMatrix.zero(3, RAT)])
    yield "from_values-mixed-modes", lambda: LatticeFn.from_values(
        0, [SmallMatrix.zero(2, FLOAT), SmallMatrix.zero(2, RAT)])
    yield "solve_dressing-float-instance-rational-potential", lambda: solve_dressing(
        desk_data(2, FLOAT), _potential(RAT), DEPTH)
    yield "solve_dressing-rational-instance-float-potential", lambda: solve_dressing(
        desk_data(2, RAT), _potential(FLOAT), DEPTH)
    yield "commutator_with_l-rational-instance-float-potential", lambda: commutator_with_l(
        _potential(FLOAT).map(MatSeries.constant), desk_data(2, RAT), _potential(FLOAT))
    yield "state-window-beyond-the-potential", lambda: HierarchyState.solve(
        desk_data(2), _potential(RAT), Window(-10, 10, 4), DEPTH)
    yield "from_values-series-values", lambda: LatticeFn.from_values(
        0, [MatSeries.zero(2, FLOAT)])
    yield "series-values-matrix-tail", lambda: LatticeFn(
        0, 0, (MatSeries.zero(2, FLOAT),), MatSeries.zero(2, FLOAT), SmallMatrix.zero(2, FLOAT),
        None, FLOAT)
    yield "state-float-order-rational-potential", lambda: _state_with_order(_order(FLOAT))
    yield "state-order-off-the-potential's-sites", lambda: _state_with_order(
        _order(lo=-5, hi=-4), U=_order(lo=0, hi=2), window=Window(1, 1, 1))
    yield "state-3x3-order", lambda: _state_with_order(_order(m=3))
    yield "state-order-of-another-step", lambda: _state_with_order(_order(step=Fraction(1, 2)))


_CASES = dict(_cases())


@pytest.mark.parametrize("case", list(_CASES))
def test_the_door_refuses(case):
    with pytest.raises((DimensionError, ModeError)):
        _CASES[case]()


@pytest.mark.parametrize("mode", MODES)
def test_the_door_accepts_the_same_potential_without_the_fault(mode):
    data = desk_data(2, mode)
    U = _potential(mode)
    assert U.m == 2
    for op in _OPS.values():
        op(data, U)
