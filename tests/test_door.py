"""Each state and each continuum scan is checked once, at its door.

A lattice is checked when it is built: every value and both tails of a
``LatticeFn`` share one type, one dimension and the lattice's mode.  A
potential has the instance's dimension and mode.  A ``HierarchyState`` is
checked when it is built, in ``__post_init__``: its potential lives on its
window's stored sites and fits its instance, its depth is in 1..halo, and
each dressing order lives on the potential's sites, in its mode, dimension
and step.  Each case of ``test_the_door_refuses`` breaks one of these and
is refused with a ``DimensionError`` or a ``ModeError``, which the command
line maps to exit status 2 like every input error.  Before these checks
each case was accepted, failed only later (a float order in a rational
state, when the dressing series was first read), or escaped as an
``AttributeError`` (a rational potential of a float instance; series values
with matrix tails in the commutator).

The state door also refuses a state whose potential does not fit its
instance, and a depth outside 1..halo, each of which it used to accept: a
rational instance with a float state was saved as a float document with
rational ``a``, and a depth above the halo was saved and then refused on
loading.  So every state the door accepts survives a save and a load byte
for byte.  A scan's door, ``dynamics.check_scan_steps``, refuses fewer than
three step sizes, which measure no Cauchy order.
"""
from fractions import Fraction
import json

from hypothesis import given, settings, strategies as st
import pytest

from aknsd import scalars
from aknsd.dynamics import continuum_scan, gaussian_bump_profile
from aknsd.errors import DimensionError, InstanceError, ModeError, SchemaError
from aknsd.hierarchy import (AknsData, Dressing, HierarchyState, commutator_with_l, flow_field,
                             resolvent_direct, solve_dressing)
from aknsd.instances import desk_data
from aknsd.persist import state_from_json, state_to_json
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


def _state(*orders, U=None, window=WINDOW, data=None):
    """A state of ``data`` (default the rational m = 2 instance) and ``U`` (default
    ``_potential``) whose dressing orders are ``orders``."""
    data = desk_data(2) if data is None else data
    return HierarchyState(data, _potential(RAT) if U is None else U, window,
                          Dressing(len(orders), orders, data.conventions()))


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
    yield "state-float-order-rational-potential", lambda: _state(_order(FLOAT))
    yield "state-order-off-the-potential's-sites", lambda: _state(
        _order(lo=-5, hi=-4), U=_order(lo=0, hi=2), window=Window(1, 1, 1))
    yield "state-3x3-order", lambda: _state(_order(m=3))
    yield "state-order-of-another-step", lambda: _state(_order(step=Fraction(1, 2)))


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


# -- the state door ------------------------------------------------------------------


_STATE_DOOR = {
    "rational-instance-float-state": (
        ModeError, "a float potential for a rational instance",
        lambda: _state(_order(FLOAT), U=_order(FLOAT))),
    "float-instance-rational-state": (
        ModeError, "a rational potential for a float instance",
        lambda: _state(_order(), data=desk_data(2, FLOAT))),
    "3x3-instance-2x2-state": (
        DimensionError, "a 2x2 potential for an instance of m = 3",
        lambda: _state(_order(), data=desk_data(3))),
    "depth-0": (
        InstanceError, "dressing depth 0 outside 1..2 (the window halo)", _state),
    "depth-5-halo-3": (
        InstanceError, "dressing depth 5 outside 1..3 (the window halo)",
        lambda: _state(*[_order(lo=-4, hi=4)] * 5, U=_order(lo=-4, hi=4),
                       window=Window(-1, 1, 3))),
    "solve-depth-above-the-halo": (
        InstanceError, "dressing depth 3 outside 1..2 (the window halo)",
        lambda: HierarchyState.solve(desk_data(2), _potential(RAT), WINDOW, 3)),
}


@pytest.mark.parametrize("case", list(_STATE_DOOR))
def test_the_state_door_refuses(case):
    error, message, build = _STATE_DOOR[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


def test_a_document_whose_halo_is_below_its_depth_keeps_its_message():
    doc = state_to_json(HierarchyState.solve(desk_data(2), _potential(RAT), WINDOW, DEPTH))
    doc["window"] = {"n_min": -2, "n_max": 2, "halo": 1}  # the same stored sites -3..3
    with pytest.raises(SchemaError) as refused:
        state_from_json(doc)
    assert str(refused.value) == \
        "invalid state document: dressing depth 2 outside 1..1 (the window halo)"
    doc["dressing"] = []
    with pytest.raises(SchemaError) as refused:
        state_from_json(doc)
    assert str(refused.value) == \
        "invalid state document: dressing depth 0 outside 1..1 (the window halo)"


@st.composite
def state_parts(draw):
    """The fields of a state: either mode, m = 2 or 3, a unit or half step, random
    potential and dressing values (a float may be a signed zero, an inf or a
    nan), and most often a depth in 1..halo and an instance the potential fits.
    The rest are states the door refuses: a depth of 0 or above the halo, an
    instance of the other mode or dimension."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from(MODES))
    data_m, data_mode = draw(st.sampled_from(
        [(m, mode)] * 8 + [(5 - m, mode), (m, FLOAT if mode == RAT else RAT)]))
    a = draw(st.permutations((1, -1, 2, Fraction(-1, 2))))[:data_m]
    data = AknsData(data_m, tuple(scalars.as_scalar(x, data_mode) for x in a), data_mode)
    halo = draw(st.integers(1, 3))
    n_min = draw(st.integers(-2, 1))
    window = Window(n_min, n_min + draw(st.integers(0, 2)), halo)
    step = draw(st.sampled_from([None, scalars.as_scalar(Fraction(1, 2), mode)]))
    entries = st.floats() if mode == FLOAT else st.sampled_from(
        [0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 12)])

    def lattice():
        return LatticeFn.from_values(window.stored_lo, [
            SmallMatrix.from_rows([[draw(entries) for _ in range(m)] for _ in range(m)], mode)
            for _ in range(window.stored_lo, window.stored_hi + 1)], step=step)

    depth = draw(st.integers(1, halo) | st.integers(0, halo + 2))
    return data, lattice(), window, Dressing(depth, tuple(lattice() for _ in range(depth)),
                                             data.conventions())


def _text(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


@given(state_parts())
@settings(max_examples=200, deadline=None)
def test_a_state_is_refused_at_its_door_or_survives_a_save_and_a_load(parts):
    try:
        state = HierarchyState(*parts)
    except (DimensionError, InstanceError, ModeError):
        return
    doc = state_to_json(state)
    assert _text(state_to_json(state_from_json(json.loads(_text(doc))))) == _text(doc)


# -- the scan door -------------------------------------------------------------------


@pytest.mark.parametrize("eps_list", [[0.5], [0.5, 0.25]])
def test_the_scan_door_refuses_fewer_than_three_step_sizes(eps_list):
    # two step sizes give one Cauchy difference and no order to pass or fail
    with pytest.raises(InstanceError, match=f"at least 3 step sizes .*; got {len(eps_list)}$"):
        continuum_scan(desk_data(2, FLOAT), gaussian_bump_profile(2), eps_list)
