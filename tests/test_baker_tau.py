"""Discrete exponential, time shifts, tau sums, Miwa shifts, Baker assembly."""

from fractions import Fraction
import math
import random

import pytest

from aknsd import scalars
from aknsd.baker import (
    GFactor,
    TauExpSum,
    TimePoint,
    baker_from_tau,
    g_series,
    miwa_shift,
    miwa_shift_terms,
    shifted_times,
    tau_lambda_consistent,
)
from aknsd.errors import ConsistencyError, ModeError, ValidityError
from aknsd.hierarchy import HierarchyState
from aknsd.instances import DESK_WINDOW, desk_data, vacuum_potential
from aknsd.series import series_mul
from helpers import RAT


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
        from aknsd.baker import _exp_series_coeffs

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


# -- tau exponential sums -----------------------------------------------------------


def test_miwa_of_unit_tau():
    tau = TauExpSum.one()
    series = miwa_shift(tau, 1, 4)
    assert series.get(0).get(1, 1) == 1
    for j in range(1, 5):
        assert series.get(-j).get(1, 1) == 0


def test_miwa_exponential_term_matches_taylor():
    # tau = exp(p t_{1 gamma}): the shifted series is exp(p t) sum (-p)^j z^-j / j!,
    # which is the term-by-term Taylor series of tau(t - z^{-1}/1)
    p = Fraction(3, 2)
    tau = TauExpSum.make([(1, {(1, 1): p})])
    per_degree = miwa_shift_terms(tau, 1, 5)
    for j in range(6):
        term = per_degree[j].terms
        assert len(term) == 1
        expect = (-p) ** j / math.factorial(j)
        assert term[0].c == expect
        assert term[0].p == ((((1, 1)), p),)


def test_miwa_linear_over_terms():
    t1 = TauExpSum.make([(2, {(1, 1): Fraction(1, 2)})])
    t2 = TauExpSum.make([(-1, {(2, 1): Fraction(1, 3)})])
    combined = t1 + t2
    for j in range(4):
        got = miwa_shift_terms(combined, 1, 3)[j]
        split = miwa_shift_terms(t1, 1, 3)[j] + miwa_shift_terms(t2, 1, 3)[j]
        assert got == split


def test_tau_lambda_consistency_random_terms():
    rng = random.Random(3)
    data = desk_data(2)
    for _ in range(5):
        terms = []
        for _ in range(3):
            p = {
                (k, alpha): Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                for k in (1, 2)
                for alpha in (1, 2)
                if rng.random() < 0.8
            }
            terms.append((Fraction(rng.randint(1, 3)), p))
        tau = TauExpSum.make(terms)
        for n in (-2, 0, 3):
            assert tau_lambda_consistent(tau, data, n)


def test_discrete_shift_additivity():
    data = desk_data(3)
    tau = TauExpSum.make([
        (1, {(1, 1): Fraction(1, 2), (2, 3): Fraction(1)}),
        (Fraction(-1, 2), {(1, 2): Fraction(2)}),
    ])
    assert tau.discrete_shift(2, data).discrete_shift(3, data) == \
        tau.discrete_shift(5, data)


# -- Baker candidate ------------------------------------------------------------------


def test_vacuum_tau_gives_identity_baker():
    data = desk_data(2)
    tau = TauExpSum.one()
    for n in (-2, 0, 1, 4):
        w = baker_from_tau(tau, {}, n, T0, data, 5)
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
        w = baker_from_tau(tau, {}, n, T0, data, 5)
        site = state.hat.at(n)
        for d in range(-5, 1):
            assert w.get(d) == site.get(d)


def test_baker_vanishing_denominator():
    data = desk_data(2, scalars.FLOAT)
    tau = TauExpSum.make([(1.0, {}), (-1.0, {})], scalars.FLOAT)
    with pytest.raises(ConsistencyError):
        baker_from_tau(tau, {}, 0, TimePoint.make({}, scalars.FLOAT), data, 3)


def test_baker_offdiagonal_prefactor_and_convention():
    # a companion tau produces the explicit z^-1 prefactor; the Miwa shift
    # applies in the column index
    data = desk_data(2, scalars.FLOAT)
    tf = TimePoint.make({(1, 2): 0.3}, scalars.FLOAT)
    tau_d = TauExpSum.one(scalars.FLOAT)
    comp = TauExpSum.make([(0.7, {(1, 2): 1.0})], scalars.FLOAT)
    w = baker_from_tau(tau_d, {(1, 2): comp}, 0, tf, data, 4)
    assert w.get(0) == (data.projector(1) + data.projector(2))
    val = comp.evaluate(tf)
    assert w.get(-1).get(1, 2) == pytest.approx(val)
