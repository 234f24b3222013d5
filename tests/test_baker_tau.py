"""Tau sums, their discrete and Miwa shifts, Baker assembly."""

from fractions import Fraction
import random

import pytest

from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.baker import TauExpSum, baker_from_tau, miwa_shift, tau_lambda_defect
from aknsd.config import parse_config
from aknsd.errors import ConsistencyError, InstanceError
from aknsd.hierarchy import HierarchyState, dressing_residual
from aknsd.instances import DESK_WINDOW, desk_data, vacuum_potential
from aknsd.verify import bilinear_analytic_grid
from helpers import RAT, SRC, exp_series_coeffs, rand_miwa_tau, soliton_tau, state_from_tau


# -- tau sums over Miwa points ----------------------------------------------------------


def test_miwa_of_unit_tau():
    assert miwa_shift(TauExpSum.one(), 1, 4) == [1, 0, 0, 0, 0]


def test_miwa_exponential_term_matches_taylor():
    # tau = exp(s xi_1(x)): the Miwa shift t_k -> t_k - z^-k / k turns it into
    # exp(-s sum_k x^k z^-k / k) at t = 0, whose Taylor coefficients the
    # rational factor (1 - x/z)^s must reproduce exactly
    x = Fraction(3, 2)
    for sign in (1, -1):
        tau = TauExpSum.make([(1, ((1, x, sign),))])
        taylor = exp_series_coeffs({k: -sign * x ** k / k for k in range(1, 6)}, 5, RAT)
        assert miwa_shift(tau, 1, 5) == taylor
        assert miwa_shift(tau, 2, 5) == [1, 0, 0, 0, 0, 0]


def test_miwa_linear_over_terms():
    t1 = [(2, ((1, Fraction(1, 2), 1), (2, Fraction(1, 3), -1)))]
    t2 = [(-1, ((1, Fraction(1, 3), -1),))]
    combined = miwa_shift(TauExpSum.make(t1 + t2), 1, 3)
    split = zip(miwa_shift(TauExpSum.make(t1), 1, 3), miwa_shift(TauExpSum.make(t2), 1, 3))
    assert combined == [u + v for u, v in split]


def test_tau_lambda_consistency_random_terms():
    rng = random.Random(3)
    data = desk_data(2)
    for _ in range(5):
        tau = rand_miwa_tau(rng, 2)
        for n in (-2, 0, 3):
            assert tau_lambda_defect(tau, data, n) == 0


def test_float_tau_lambda_defect_within_tolerance():
    # single-point taus on float desk_m3: the factors are rounded, so the two
    # shift orders differ by roundoff (at most 2.8e-14 on this grid) and the
    # defect is held to the config's float tolerance, as `aknsd tau` does
    config = parse_config((SRC.parent / "configs" / "desk_m3.json").read_text())
    data = config.data(scalars.FLOAT)
    tol = config.tolerance(scalars.FLOAT)
    for gamma in (1, 2, 3):
        for x in (0.1, 0.3, 0.7, 1.3):
            tau = TauExpSum.make([(1.0, ((gamma, x, 1),))], scalars.FLOAT)
            for n in range(-3, 5):
                assert tau_lambda_defect(tau, data, n) <= tol, (gamma, x, n)


def test_discrete_shift_additivity():
    data = desk_data(3)
    tau = TauExpSum.make([
        (1, ((1, Fraction(1, 2), 1), (3, Fraction(1, 3), -1))),
        (Fraction(-1, 2), ((2, Fraction(2), 1),)),
    ])
    assert tau.discrete_shift(2, data).discrete_shift(3, data) == \
        tau.discrete_shift(5, data)
    # (1 + a_1 x)^n (1 + a_3 y)^-n and (1 + a_2 x)^n at n = 2, a = (1, 2, -1)
    assert [c for c, _ in tau.discrete_shift(2, data).terms] == \
        [Fraction(3, 2) ** 2 * Fraction(2, 3) ** -2, Fraction(-1, 2) * 5 ** 2]


@st.composite
def _miwa_taus(draw):
    m = draw(st.sampled_from((2, 3)))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    point = st.tuples(st.integers(1, m), small, st.sampled_from((1, -1)))
    terms = draw(st.lists(st.tuples(small, st.lists(point, max_size=3)), max_size=3))
    data = desk_data(m)
    # a point with 1 + a_g x = 0 is refused (test_bad_miwa_points_are_refused)
    terms = [(c, [(g, x, s) for g, x, s in pts if 1 + data.a[g - 1] * x != 0])
             for c, pts in terms]
    return data, TauExpSum.make(terms)


@given(_miwa_taus(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_discrete_shift_is_additive_in_n(case, n1, n2):
    data, tau = case
    assert tau.discrete_shift(n1, data).discrete_shift(n2, data) == \
        tau.discrete_shift(n1 + n2, data)
    assert tau_lambda_defect(tau, data, n1) == 0


@given(st.integers(1, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_miwa_shift_of_one_point(gamma, x, depth):
    plus = miwa_shift(TauExpSum.make([(1, ((gamma, x, 1),))]), gamma, depth)
    minus = miwa_shift(TauExpSum.make([(1, ((gamma, x, -1),))]), gamma, depth)
    pair = miwa_shift(TauExpSum.make([(1, ((gamma, x, 1), (gamma, x, -1)))]), gamma, depth)
    assert plus == [1, -x] + [0] * (depth - 1)
    assert minus == [x ** j for j in range(depth + 1)]
    assert pair == [1] + [0] * depth


def test_bad_miwa_points_are_refused():
    with pytest.raises(InstanceError):
        TauExpSum.make([(1, ((0, Fraction(1, 2), 1),))])
    with pytest.raises(InstanceError):
        TauExpSum.make([(1, ((1, Fraction(1, 2), 2),))])
    data = desk_data(2)  # a = (1, -1)
    for point in ((3, Fraction(1, 2), 1), (2, Fraction(1), -1), (1, Fraction(-1), 1)):
        tau = TauExpSum.make([(1, (point,))])
        with pytest.raises(InstanceError):
            tau.discrete_shift(-1, data)
        with pytest.raises(InstanceError):
            baker_from_tau(tau, {}, 0, data, 3)


# -- Baker candidate ------------------------------------------------------------------


def test_vacuum_tau_gives_identity_baker():
    data = desk_data(2)
    tau = TauExpSum.one()
    for n in (-2, 0, 1, 4):
        w = baker_from_tau(tau, {}, n, data, 5)
        assert w.get(0) == data.projector(1) + data.projector(2)
        for d in range(-5, 0):
            assert w.get(d).is_zero()


def test_vacuum_candidate_consistent_with_vacuum_state():
    # the vacuum candidate w_hat = I must reproduce the solved vacuum state's
    # dressing series exactly at every site
    data = desk_data(2)
    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2),
                                 DESK_WINDOW, 5)
    tau = TauExpSum.one()
    for n in (-3, 0, 2):
        w = baker_from_tau(tau, {}, n, data, 5)
        site = state.hat.at(n)
        for d in range(-5, 1):
            assert w.get(d) == site.get(d)


def test_baker_vanishing_denominator():
    data = desk_data(2, scalars.FLOAT)
    tau = TauExpSum.make([(1.0, ()), (-1.0, ((1, 0.5, 1),))], scalars.FLOAT)
    with pytest.raises(ConsistencyError):
        baker_from_tau(tau, {}, 0, data, 3)


def test_baker_offdiagonal_prefactor_and_convention():
    # a companion tau produces the explicit z^-1 prefactor; the Miwa shift
    # applies in the column index (beta = 2), not in the row index
    data = desk_data(2, scalars.FLOAT)
    tau_d = TauExpSum.one(scalars.FLOAT)
    comp = TauExpSum.make([(0.7, ((2, 0.25, 1), (1, 0.5, -1)))], scalars.FLOAT)
    w = baker_from_tau(tau_d, {(1, 2): comp}, 0, data, 4)
    assert w.get(0) == (data.projector(1) + data.projector(2))
    assert w.get(-1).get(1, 2) == pytest.approx(0.7)
    assert w.get(-2).get(1, 2) == pytest.approx(-0.7 * 0.25)
    assert w.get(-3).get(1, 2) == 0.0
    assert w.get(-1).get(2, 1) == 0.0


@pytest.mark.parametrize("key", [(0, 1), (1, 3), (2, 2), (-1, 2)])
def test_baker_refuses_companion_keys_outside_the_pairs(key):
    data = desk_data(2)
    with pytest.raises(InstanceError):
        baker_from_tau(TauExpSum.one(), {key: TauExpSum.one()}, 0, data, 3)


# -- the AKNS soliton -----------------------------------------------------------------


def _soliton_checks(state):
    return dressing_residual(state), scalars.max_of(bilinear_analytic_grid(state), RAT)


@pytest.mark.parametrize("m, i, j", [(2, 1, 2), (3, 1, 3), (3, 2, 3)])
def test_soliton_tau_is_an_exact_dressing(m, i, j):
    data = desk_data(m)
    tau, companions = soliton_tau(i, j)
    state = state_from_tau(data, tau, companions)
    assert any(not state.U.at(n).is_zero() for n in state.U.sites())
    assert _soliton_checks(state) == (0, 0)
    # c1 changed in tau_ij alone breaks the coupling kappa = c1 c2 / (p - P)^2
    companions[(i, j)] = soliton_tau(i, j, c1=2)[1][(i, j)]
    residual, grid = _soliton_checks(state_from_tau(data, tau, companions))
    assert residual > 0 and grid > 0


def test_soliton_needs_one_point_per_pair():
    # exp(xi_1(p) - xi_2(q)) with p != q is not invariant under the common
    # shift of all components: the AKNS reduction fails
    data = desk_data(2)
    p, q, P = Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)
    kappa = Fraction(2) / (p - P) ** 2
    tau = TauExpSum.make([(1, ()), (kappa, ((1, p, 1), (2, q, -1), (2, P, 1), (1, P, -1)))])
    companions = {(1, 2): TauExpSum.make([(1, ((1, p, 1), (2, q, -1)))]),
                  (2, 1): TauExpSum.make([(2, ((2, P, 1), (1, P, -1)))])}
    assert dressing_residual(state_from_tau(data, tau, companions)) > 0
