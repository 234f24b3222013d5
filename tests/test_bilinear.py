"""Bilinear residue verifier and adjoint checks."""

from fractions import Fraction
import gc
import math
import random
import weakref

from hypothesis import given, settings, strategies as st
import pytest

from aknsd import baker, scalars
from aknsd.baker import (
    adjoint_check,
    bilinear_expression,
    bilinear_l_capacity,
    bilinear_residual,
    bilinear_residuals,
)
from aknsd.errors import InstanceError, ModeError, ValidityError
from aknsd.hierarchy import (
    Dressing,
    HierarchyState,
    cross_solver_difference,
    dressing_residual,
)
from aknsd.instances import (
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.verify import bilinear_analytic_grid
from helpers import RAT, rand_matrix, ref_bilinear_residual

FLOAT = scalars.FLOAT
DEPTH = 6


def rational_state(m=2, seed=None, potential=None, depth=DEPTH):
    data = desk_data(m)
    if potential is None:
        if seed is None:
            potential = impulse_potential(DESK_WINDOW, m)
        else:
            rng = random.Random(seed)
            potential = random_potential(DESK_WINDOW, data, rng)
    return HierarchyState.solve(data, potential, DESK_WINDOW, depth)


def float_state(seed=0, amplitude=0.15, m=2, depth=5):
    window = Window(-6, 6, 6)
    data = desk_data(m, FLOAT)
    rng = random.Random(seed)
    u = random_potential(window, data, rng, span=2).map(lambda v: v.scale(amplitude))
    return HierarchyState.solve(data, u, window, depth, validate=False)


def test_vacuum_all_checks_zero():
    data = desk_data(2)
    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2),
                                 DESK_WINDOW, DEPTH)
    for m_delta in (0, 1):
        for word in ((), ((1, 1),), ((0, 2),)):
            l_max = min(4, bilinear_l_capacity(state.depth, word, m_delta))
            check = bilinear_residual(state, l_max, m_delta, word)
            assert check == 0


def test_word0_m1_expression_is_za_minus_u():
    # (Delta w) w^{-1} = z A - U(n): the reduced expression must match the
    # polynomial exactly, coefficient for coefficient, on claimable sites
    state = rational_state(seed=21)
    expr = bilinear_expression(state, 1, ())
    a_mat = state.data.matrix
    for n in expr.sites():
        s = expr.at(n)
        assert s.get(1) == a_mat
        assert s.get(0) == -state.U.at(n)
        for d in range(s.valid_lo, 0):
            assert s.get(d).is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_analytic_path_exact_zero(m):
    state = rational_state(m=m, seed=m + 1)
    for m_delta in (0, 1):
        for k in (0, 1):
            for alpha in (1, m):
                word = ((k, alpha),)
                l_max = min(4, bilinear_l_capacity(state.depth, word, m_delta))
                check = bilinear_residual(state, l_max, m_delta, word)
                assert check == 0, (m_delta, k, alpha)


def test_length_two_analytic_exact_zero():
    state = rational_state(seed=33)
    for m_delta in (0, 1):
        for word in (((1, 1), (1, 2)), ((0, 1), (1, 1)), ((1, 2), (0, 2))):
            l_max = min(3, bilinear_l_capacity(state.depth, word, m_delta))
            check = bilinear_residual(state, l_max, m_delta, word, path="analytic")
            assert check == 0, (m_delta, word)


def test_depth_budget_errors():
    state = rational_state(depth=3)
    with pytest.raises(ValidityError):
        bilinear_residual(state, 2, 0, ((2, 1),))
    with pytest.raises(ValidityError):
        bilinear_residual(state, 10, 0, ((1, 1),))


def test_words_longer_than_two_refused():
    state = rational_state(depth=3)
    with pytest.raises(InstanceError):
        bilinear_expression(state, 0, ((0, 1), (0, 2), (0, 1)))


@pytest.mark.parametrize("m_delta", [-1, 2])
def test_a_difference_power_other_than_0_or_1_is_refused(m_delta):
    state = rational_state(depth=3)
    for run in (lambda: bilinear_expression(state, m_delta, ()),
                lambda: bilinear_residual(state, 0, m_delta, ((0, 1),)),
                lambda: bilinear_residuals(state, {(): [(0, 0), (m_delta, 0)]})):
        with pytest.raises(InstanceError, match="the difference power must be 0 or 1"):
            run()


@pytest.mark.parametrize("m", [2, 3])
def test_l_capacity_is_the_band_of_the_expression(m):
    # the closed form must equal -1 minus the lowest valid degree on every
    # analytic grid cell, including those it gives no residue to
    window = Window(-1, 1, 8)
    data = desk_data(m)
    words = [()] + [((k, alpha),) for k in (0, 1) for alpha in range(1, m + 1)]
    for depth in range(2, 9):
        state = HierarchyState.solve(data, impulse_potential(window, m), window, depth)
        for m_delta in (0, 1):
            for word in words:
                expr = bilinear_expression(state, m_delta, word)
                bands = {expr.at(n).valid_lo for n in expr.sites()}
                cap = bilinear_l_capacity(depth, word, m_delta)
                assert bands == {-1 - cap}, (depth, m_delta, word)


def test_corrupted_dressing_detected():
    # perturbing one dressing coefficient at one site must surface in the
    # Delta-path residues (the plain word-0/m=0 product is insensitive)
    state = rational_state(seed=55)
    rng = random.Random(99)
    for _ in range(5):
        k_ord = rng.randrange(state.depth)
        site = rng.randint(-6, 6)
        w = state.dressing.ws[k_ord]
        bump = rand_matrix(rng, 2)
        vals = tuple(v + bump if n == site else v for n, v in zip(w.sites(), w.values))
        tampered_ws = list(state.dressing.ws)
        tampered_ws[k_ord] = LatticeFn(w.lo, w.hi, vals, w.left_tail,
                                       w.right_tail, w.step, w.mode)
        bad = HierarchyState(
            state.data, state.U, state.window,
            Dressing(state.depth, tuple(tampered_ws), state.dressing.conventions),
        )
        check = bilinear_residual(bad, 4, 1, ())
        assert check > 0


def test_numeric_path_second_order():
    state = float_state(seed=7)
    deltas = (2e-4, 1e-4)
    residuals = []
    for d in deltas:
        check = bilinear_residual(state, 3, 0, ((1, 1),), path="numeric", fd_step=d)
        residuals.append(check)
    assert residuals[0] < 1e-4
    import math

    order = math.log2(residuals[0] / residuals[1])
    assert order > 1.6


def test_numeric_path_tight_tolerance():
    # centered-difference U-curve: truncation ~ C delta^2 falls to the
    # roundoff floor near delta ~ 3e-6 for this amplitude
    state = float_state(seed=8, amplitude=0.1)
    check = bilinear_residual(state, 3, 0, ((1, 1),), path="numeric", fd_step=3e-6)
    assert check <= 1e-8


def test_numeric_path_with_delta():
    state = float_state(seed=9)
    check = bilinear_residual(state, 3, 1, ((0, 2),), path="numeric", fd_step=5e-5)
    assert check <= 1e-6


@pytest.mark.parametrize("word,path", [(((1, 1),), "numeric"),
                                       (((1, 1), (1, 2)), "mixed")])
def test_finite_difference_paths_refuse_a_rational_state(word, path):
    # the RK4 step is the one place that states the float-only rule
    with pytest.raises(ModeError, match="^time evolution requires float mode$"):
        bilinear_residual(rational_state(), 2, 0, word, path=path, fd_step=1e-4)


def test_length_two_mixed_path():
    # the displacement polynomial consumes 3*k1 band orders, so the mixed
    # path needs the full desk depth (and its halo) to leave residue room
    rng = random.Random(10)
    data = desk_data(2, FLOAT)
    u = random_potential(DESK_WINDOW, data, rng, span=2).map(
        lambda v: v.scale(0.15))
    state = HierarchyState.solve(data, u, DESK_WINDOW, 8, validate=False)
    check = bilinear_residual(state, 2, 0, ((1, 1), (1, 2)), path="mixed",
                              fd_step=2e-4)
    assert 0 < check <= 1e-6



# -- the region of interest ----------------------------------------------------------


def _bumped(state, k_ord, site, bump):
    """``state`` with ``bump`` added to dressing order ``k_ord + 1`` at ``site``."""
    w = state.dressing.ws[k_ord]
    vals = tuple(v + bump if n == site else v for n, v in zip(w.sites(), w.values))
    ws = list(state.dressing.ws)
    ws[k_ord] = LatticeFn(w.lo, w.hi, vals, w.left_tail, w.right_tail, w.step, w.mode)
    return HierarchyState(state.data, state.U, state.window,
                          Dressing(state.depth, tuple(ws), state.dressing.conventions))


def _analytic_grid(state):
    """Every analytic cell with room for a residue: the verifier's words and one
    length-2 word, difference powers 0 and 1, each through l <= min(3, capacity)."""
    words = [()] + [((k, a),) for k in (0, 1) for a in range(1, state.data.m + 1)]
    grid = {}
    for word in words + [((1, 1), (0, 2))]:
        cells = [(m_delta, min(3, cap)) for m_delta in (0, 1)
                 if (cap := bilinear_l_capacity(state.depth, word, m_delta)) >= 0]
        if cells:
            grid[word] = cells
    return grid


@st.composite
def region_states(draw):
    """A random rational state: m = 2 or 3, step 1 or 1/2, depth 2..8 on a window of
    one to three sites whose halo is the depth; one in two has one dressing order
    bumped at one stored site, most often at n_max + 1."""
    m = draw(st.integers(2, 3))
    depth = draw(st.integers(2, 8))
    n_min = draw(st.integers(-1, 0))
    window = Window(n_min, n_min + draw(st.integers(0, 2)), depth)
    data = desk_data(m)
    u = random_potential(window, data, random.Random(draw(st.integers(0, 10 ** 6))), span=1)
    step = draw(st.sampled_from([None, Fraction(1, 2)]))
    u = LatticeFn(u.lo, u.hi, u.values, u.left_tail, u.right_tail, step, u.mode)
    state = HierarchyState.solve(data, u, window, depth)
    if draw(st.booleans()):
        site = draw(st.sampled_from([window.n_max + 1, window.n_max + 1, window.n_min,
                                     window.stored_lo, window.stored_hi]))
        bump = SmallMatrix.unit(m, 1, 2, RAT, draw(st.sampled_from([1, Fraction(-1, 3)])))
        state = _bumped(state, draw(st.integers(0, depth - 1)), site, bump)
    return state


@given(region_states())
@settings(max_examples=30, deadline=None)
def test_the_region_residual_is_the_full_site_residual_cut_to_the_region(state):
    # every product of the expression is site-local, so forming it on the
    # region of interest alone, with one word factor per word, gives the
    # value of the full-site expression cut to the region afterwards
    grid = _analytic_grid(state)
    want = [ref_bilinear_residual(state, l_max, m_delta, word)
            for word, cells in grid.items() for m_delta, l_max in cells]
    assert bilinear_residuals(state, grid) == want
    assert [bilinear_residual(state, l_max, m_delta, word)
            for word, cells in grid.items() for m_delta, l_max in cells] == want


@pytest.mark.parametrize("m", [2, 3])
def test_a_bump_at_n_max_plus_one_is_seen_by_the_difference_form_only(m):
    # the difference form at n_max reads Y(n_max + 1), a site past the region
    # of interest; the plain form Y(n) w_hat(n)^{-1} reads none
    state = rational_state(m=m, seed=31)
    n = state.window.n_max + 1
    bad = _bumped(state, 0, n, SmallMatrix.unit(m, 1, 2, RAT))
    for m_delta in (0, 1):
        value = bilinear_residual(bad, 2, m_delta, ())
        assert value == ref_bilinear_residual(bad, 2, m_delta, ())
        assert (value > 0) == (m_delta == 1)
    assert max(bilinear_analytic_grid(bad)) > 0


def test_a_state_is_freed_at_its_last_reference():
    # nothing a state keeps (its dressing on entry columns, w_hat^{-1}, the
    # resolvents) and nothing formed from it (a region cut, the lattices and
    # values kept below) points back at it, so with the cycle collector off
    # the state goes at its last reference
    state = rational_state(m=2, seed=5, depth=3)
    kept = [state.hat_inverse, *(state.resolvent(a) for a in (1, 2)), dressing_residual(state),
            cross_solver_difference(state, 1), bilinear_analytic_grid(state)]
    region = baker._region(state)
    kept += [region.hat_inverse, *(region.resolvent(a) for a in (1, 2))]
    ref = weakref.ref(state)
    gc.collect()
    gc.disable()
    try:
        del state, region
        assert ref() is None
    finally:
        gc.enable()
    assert kept


# -- adjoint -----------------------------------------------------------------------


def compact_pair(window, m, seed):
    rng = random.Random(seed)
    zero = SmallMatrix.zero(m, RAT)
    lo, hi = window.stored_lo, window.stored_hi

    def build():
        vals = []
        for n in range(lo, hi + 1):
            if -3 <= n <= 3 and rng.random() < 0.8:
                vals.append(rand_matrix(rng, m))
            else:
                vals.append(zero)
        return LatticeFn.from_values(lo, vals)

    return build(), build()


def test_adjoint_vacuum_single_site():
    data = desk_data(2)
    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2),
                                 DESK_WINDOW, 4)
    e11 = SmallMatrix.basis_projector(2, 1, RAT)
    zero = SmallMatrix.zero(2, RAT)
    lo, hi = DESK_WINDOW.stored_lo, DESK_WINDOW.stored_hi
    f = LatticeFn.from_values(lo, [e11 if n == 0 else zero for n in range(lo, hi + 1)])
    pairing, kernel = adjoint_check(state, f, f)
    assert pairing == 0
    assert kernel == 0


def test_adjoint_pairing_residual_keeps_a_nan(monkeypatch):
    data = desk_data(2, FLOAT)
    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2, FLOAT),
                                 DESK_WINDOW, 4)
    zero = SmallMatrix.zero(2, FLOAT)
    lo, hi = DESK_WINDOW.stored_lo, DESK_WINDOW.stored_hi
    f = LatticeFn.from_values(lo, [SmallMatrix.basis_projector(2, 1, FLOAT) if n == 0
                                   else zero for n in range(lo, hi + 1)])
    g = LatticeFn.from_values(lo, [SmallMatrix(2, FLOAT, ((math.nan, 0.0), (0.0, 0.0)))
                                   if n == 1 else zero for n in range(lo, hi + 1)])
    pairing, _ = adjoint_check(state, f, g)
    assert math.isnan(pairing)
    # a nan in the z-degree pairing alone: builtin max(0.5, nan) would give 0.5
    products = iter([0.5, 0.0, math.nan, 0.0])
    monkeypatch.setattr(baker, "inner_product", lambda *_: next(products))
    pairing, _ = adjoint_check(state, f, f)
    assert math.isnan(pairing)


@pytest.mark.parametrize("m", [2, 3])
def test_adjoint_random_compact_exact(m):
    state = rational_state(m=m, seed=m + 60)
    f, g = compact_pair(DESK_WINDOW, m, seed=m)
    pairing, kernel = adjoint_check(state, f, g)
    assert pairing == 0
    assert kernel == 0


def test_dual_kernel_top_coefficient_identity():
    state = rational_state(seed=70)
    ident = SmallMatrix.identity(2, RAT)
    for n in state.hat_inverse.sites():
        assert state.hat_inverse.at(n).get(0).transpose() == ident
