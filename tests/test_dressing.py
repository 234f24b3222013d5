"""Dressing solver tests, including the dense-linear-solve oracle."""

from fractions import Fraction
from math import gcd
import random

from hypothesis import given, settings, strategies as st
import pytest

from aknsd.errors import ConsistencyError, InstanceError
from aknsd.columns import _kit, _solve_exact, solve_two_point
from aknsd.hierarchy import AknsData, HierarchyState, dressing_residual
from aknsd.instances import (
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from helpers import RAT, assert_canonical


def dense_two_point_oracle(a_i, a_j, rhs, lo, hi, direction):
    """Brute-force alternative to the marching kernel: assemble the full
    linear system (one row per transition plus the boundary row) and solve it
    by exact Gaussian elimination.  ``rhs[k]`` belongs to the transition lo + k."""
    size = hi - lo + 1
    rows = []
    vec = []
    for n in range(lo, hi):
        row = [Fraction(0)] * size
        row[n - lo] = Fraction(a_i)
        row[n + 1 - lo] = Fraction(-a_j)
        rows.append(row)
        vec.append(Fraction(rhs[n - lo]))
    boundary = [Fraction(0)] * size
    boundary[0 if direction == "forward" else size - 1] = Fraction(1)
    rows.append(boundary)
    vec.append(Fraction(0))
    # gaussian elimination
    for col in range(size):
        piv = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        vec[col] = vec[col] / p
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
                vec[r] = vec[r] - f * vec[col]
    return vec


def test_two_point_kernel_matches_dense_solve():
    rng = random.Random(0)
    for direction, (ai, aj) in (("forward", (1, -1)), ("backward", (2, 1))):
        rhs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(-5, 5)]
        got = solve_two_point(Fraction(ai), Fraction(aj), rhs, direction, RAT)
        want = dense_two_point_oracle(ai, aj, rhs, -5, 5, direction)
        assert got == want


# diagonal entries of A: integers and not, both signs, and tied magnitudes
A_ENTRIES = [Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/4", "-5/3", "7/2")]
rhs_entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))


@st.composite
def order_problems(draw):
    """AknsData, rational right-hand sides at the transitions lo..hi-1, lo, hi and a step."""
    m = draw(st.integers(2, 4))
    a = draw(st.lists(st.sampled_from(A_ENTRIES), min_size=m, max_size=m, unique=True))
    lo = draw(st.integers(-4, 0))
    hi = lo + draw(st.integers(1, 7))
    vals = []
    for _ in range(lo, hi):
        if draw(st.integers(0, 3)) == 0:
            vals.append(SmallMatrix.zero(m, RAT))
        else:
            vals.append(SmallMatrix(m, RAT, draw(
                st.lists(st.lists(rhs_entry, min_size=m, max_size=m), min_size=m, max_size=m))))
    step = draw(st.sampled_from([Fraction(1, 2), Fraction(3), Fraction(2, 3)]))
    return AknsData(m, tuple(a)), vals, lo, hi, step


@settings(max_examples=100, deadline=None)
@given(order_problems())
def test_integer_order_solve_matches_the_fraction_recursion(problem):
    # the exact order loop's solve on integer columns: canonical or unreduced
    # right-hand sides give the same canonical columns
    data, rhs, lo, hi, step = problem
    kit = _kit(data)
    cols = kit.read(rhs)
    solved = kit.solve(cols)
    assert kit.solve([[6 * x for x in c] for c in cols]) == solved
    for *num, den in zip(*solved):
        assert den > 0 and gcd(den, *num) == 1
    got = LatticeFn.from_values(lo, kit.build(solved), step=step)
    assert (got.lo, got.hi, got.step, got.mode) == (lo, hi, step, RAT)
    for n in got.sites():
        assert_canonical(got.at(n))
    for i in range(1, data.m + 1):
        for j in range(1, data.m + 1):
            comp = [r.get(i, j) for r in rhs]
            want = solve_two_point(data.a[i - 1], data.a[j - 1], comp,
                                   data.direction(i, j), RAT)
            assert [got.at(n).get(i, j) for n in got.sites()] == want, (i, j)
            pairs = _solve_exact(data.a[i - 1], data.a[j - 1],
                                 [(x.numerator, x.denominator) for x in comp],
                                 data.direction(i, j))
            assert pairs == [(x.numerator, x.denominator) for x in want], (i, j)


def test_vacuum_dressing_is_zero():
    data = desk_data(2)
    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2), DESK_WINDOW, 4)
    for w in state.dressing.ws:
        assert all(w.at(n).is_zero() for n in w.sites())
    assert dressing_residual(state) == 0


def test_impulse_order_one_closed_form():
    # m=2, A=diag(1,-1), U = E_12 at n=0: the (1,2) recursion reads
    # w(n) + w(n+1) = delta_{n,0}, solved forward from a zero left tail,
    # giving the alternating profile 0,...,0,1,-1,1,-1,...
    data = desk_data(2)
    U = impulse_potential(DESK_WINDOW, 2)
    state = HierarchyState.solve(data, U, DESK_WINDOW, 3)
    w1 = state.dressing.ws[0]
    for n in w1.sites():
        expect = 0 if n <= 0 else (-1) ** (n + 1)
        assert w1.at(n).get(1, 2) == expect
        assert w1.at(n).get(2, 1) == 0
    assert dressing_residual(state) == 0


def test_w1_diagonal_vanishes():
    data = desk_data(3)
    rng = random.Random(5)
    U = random_potential(DESK_WINDOW, data, rng)
    state = HierarchyState.solve(data, U, DESK_WINDOW, 4)
    w1 = state.dressing.ws[0]
    for n in w1.sites():
        assert w1.at(n).diagonal_part().is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_random_potentials_residual_exactly_zero(m):
    data = desk_data(m)
    rng = random.Random(42 + m)
    for _ in range(5):
        U = random_potential(DESK_WINDOW, data, rng)
        state = HierarchyState.solve(data, U, DESK_WINDOW, 6)
        assert dressing_residual(state) == 0


def test_perturbed_dressing_has_localized_residual():
    data = desk_data(2)
    U = impulse_potential(DESK_WINDOW, 2)
    state = HierarchyState.solve(data, U, DESK_WINDOW, 4)
    w1 = state.dressing.ws[0]
    bump = SmallMatrix.unit(2, 1, 2, RAT)
    site = 3
    vals = tuple(
        v + bump if n == site else v for n, v in zip(w1.sites(), w1.values)
    )
    from aknsd.hierarchy import Dressing

    tampered = Dressing(
        state.depth,
        (LatticeFn(w1.lo, w1.hi, vals, w1.left_tail, w1.right_tail, w1.step, w1.mode),)
        + state.dressing.ws[1:],
        state.dressing.conventions,
    )
    bad = HierarchyState(data, U, DESK_WINDOW, tampered)
    from aknsd.hierarchy import _defect_degree, _transition_pass

    defect = _transition_pass(bad._columns.hat, bad.U, _defect_degree).lattice()
    nonzero_sites = [n for n in defect.sites() if not defect.at(n).is_zero()]
    assert nonzero_sites
    assert all(abs(n - site) <= 1 for n in nonzero_sites)


def test_depth_exceeding_halo_rejected():
    data = desk_data(2)
    small = Window(-4, 4, 2)
    U = vacuum_potential(small, 2)
    with pytest.raises(InstanceError):
        HierarchyState.solve(data, U, small, 3)


def test_akns_data_invariants():
    with pytest.raises(InstanceError):
        AknsData(2, (Fraction(1), Fraction(1)))
    with pytest.raises(InstanceError):
        AknsData(2, (Fraction(0), Fraction(1)))
