"""Discrete exponential, time shifts, tau sums, Miwa shifts, Baker assembly."""

from fractions import Fraction
import math
import random

import pytest

from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.baker import (
    TauExpSum,
    TimePoint,
    _exp_series_coeffs,
    baker_from_tau,
    g_series,
    miwa_shift,
    shifted_times,
    tau_lambda_consistent,
)
from aknsd.errors import ConsistencyError, InstanceError, ModeError
from aknsd.hierarchy import HierarchyState, dressing_residual
from aknsd.instances import DESK_WINDOW, desk_data, vacuum_potential
from aknsd.verify import bilinear_analytic_grid
from helpers import RAT, rand_miwa_tau, soliton_tau, state_from_tau


T0 = TimePoint.make({})


def test_scalar_exponential_binomial():
    g = g_series(2, T0, (Fraction(1),), 5)
    assert [g.coeff(d).get(1, 1) for d in range(6)] == [1, 2, 1, 0, 0, 0]
    assert not g.truncated


def test_delta_exp_equals_z_exp():
    # Delta_n Exp(n;t,z) = z Exp(n;t,z), checked degreewise through the band
    rng = random.Random(1)
    a = (Fraction(2, 3),)
    t = TimePoint.make({(1, 1): Fraction(1, 2), (2, 1): Fraction(-1, 3)})
    for n in range(-3, 4):
        g_n = g_series(n, t, a, 6)
        g_n1 = g_series(n + 1, t, a, 6)
        for d in range(7):
            delta = g_n1.coeff(d) - g_n.coeff(d)
            z_exp = g_n.coeff(d - 1).scale(a[0]) if d >= 1 else g_n.coeff(-1)
            assert delta == z_exp


def test_negative_n_inverse_binomial():
    # n = -1: coefficients (-1)^k a^k, verified by multiplying back by (1+az)
    a = Fraction(3, 2)
    g = g_series(-1, T0, (a,), 6)
    for k in range(7):
        assert g.coeff(k).get(1, 1) == (-a) ** k
    acc = [g.coeff(k).get(1, 1) + a * g.coeff(k - 1).get(1, 1) if k else g.coeff(0).get(1, 1)
           for k in range(7)]
    assert acc == [1, 0, 0, 0, 0, 0, 0]


def test_g_identity_matches_shifted_times():
    # g(n;t,z) = exp(sum_{k>=1} t'_k z^k E) degreewise, for random rational a
    rng = random.Random(2)
    data = desk_data(2)
    band = 6
    for n in (-3, -1, 0, 2, 3):
        t = TimePoint.make({(1, 1): Fraction(1, 2), (2, 2): Fraction(2, 5)})
        tp = shifted_times(n, t, data, band)
        g = g_series(n, t, data, band)
        for alpha in (1, 2):
            x = {k: tp.get(k, alpha) for k in range(1, band + 1)}
            h = _exp_series_coeffs(x, band, RAT)
            for d in range(band + 1):
                assert g.coeff(d).get(alpha, alpha) == h[d]


def test_g_zero_order_invariant_and_rational_guard():
    t = TimePoint.make({(0, 1): Fraction(1)})
    with pytest.raises(ModeError):
        g_series(0, t, desk_data(2), 3)
    tf = TimePoint.make({(0, 1): 0.5}, scalars.FLOAT)
    g = g_series(0, tf, desk_data(2, scalars.FLOAT), 3)
    assert g.coeff(0).get(1, 1) == pytest.approx(math.exp(0.5))
    assert g.coeff(0).get(2, 2) == pytest.approx(1.0)


def test_shifted_times_values():
    data = desk_data(2)
    t = TimePoint.make({(1, 1): Fraction(1, 3)})
    tp = shifted_times(5, t, data, 3)
    # k=1: t + n a; k=2: t - n a^2/2; k=3: t + n a^3/3
    assert tp.get(1, 1) == Fraction(1, 3) + 5
    assert tp.get(1, 2) == -5
    assert tp.get(2, 1) == Fraction(-5, 2)
    assert tp.get(2, 2) == Fraction(-5, 2)
    assert tp.get(3, 1) == Fraction(5, 3)
    assert tp.get(3, 2) == Fraction(-5, 3)


def test_shifted_times_identity_at_zero():
    data = desk_data(3)
    t = TimePoint.make({(2, 3): Fraction(7, 2)})
    assert shifted_times(0, t, data, 4).as_dict() == t.as_dict()


def test_shifted_times_additive_in_n():
    data = desk_data(2)
    t = TimePoint.make({(1, 2): Fraction(1, 5), (3, 1): Fraction(-2)})
    once = shifted_times(1, t, data, 5)
    twice_by_steps = shifted_times(1, once, data, 5)
    direct = shifted_times(2, t, data, 5)
    assert twice_by_steps.as_dict() == direct.as_dict()


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
        taylor = _exp_series_coeffs({k: -sign * x ** k / k for k in range(1, 6)}, 5, RAT)
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
            assert tau_lambda_consistent(tau, data, n)


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
    assert tau_lambda_consistent(tau, data, n1)


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
