"""Flow-field tests: closed forms, degree checks, and the diagonal drift."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.errors import DimensionError, ValidityError
from aknsd.hierarchy import (
    AknsData,
    Dressing,
    HierarchyState,
    commutator_with_l,
    diagonal_drift,
    flow_field,
    projector_b,
    resolvent_direct,
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
from helpers import RAT, mat, ref_commutator

FLOAT = scalars.FLOAT


def _dressed_commutator(state, k, alpha):
    """[B_{k alpha}, L]_D with B taken from the dressed resolvent w E w^{-1}."""
    b = projector_b(resolvent_dressed(state, alpha), k, "plus")
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


# -- the per-site commutator kernel against the whole-lattice composition ----------


_ENTRIES = {
    RAT: (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
    FLOAT: (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 0.1, 3.0, -1e-3),
}


@st.composite
def commutator_case(draw):
    """(P, data, U): one-band P, fully known or truncated, U on another range."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))

    def matrix():
        return SmallMatrix(m, mode, tuple(
            tuple(draw(st.sampled_from(_ENTRIES[mode])) for _ in range(m))
            for _ in range(m)))

    def band():
        lo = draw(st.integers(-3, 1))
        hi = lo + draw(st.integers(0, 3))
        return lo, hi, draw(st.none() | st.integers(lo, hi))

    def series(lo, hi, valid_lo):
        return MatSeries(m, mode, lo, hi, tuple(matrix() for _ in range(lo, hi + 1)),
                         valid_lo)

    def series_tail():
        return MatSeries.zero(m, mode) if draw(st.booleans()) else series(*band())

    def matrix_tail():
        return SmallMatrix.zero(m, mode) if draw(st.booleans()) else matrix()

    step = draw(st.sampled_from([None, Fraction(1, 2)]))
    if step is not None:
        step = scalars.as_scalar(step, mode)
    p_band = band()
    p_lo, p_len = draw(st.integers(-3, 3)), draw(st.integers(2, 5))
    P = LatticeFn(p_lo, p_lo + p_len - 1, tuple(series(*p_band) for _ in range(p_len)),
                  series_tail(), series_tail(), step, mode)
    # U wider than, narrower than or shifted against P's range
    u_lo = p_lo + draw(st.integers(-2, 2))
    u_len = draw(st.integers(1, p_len + 4))
    U = LatticeFn(u_lo, u_lo + u_len - 1, tuple(matrix() for _ in range(u_len)),
                  matrix_tail(), matrix_tail(), step, mode)
    a = draw(st.permutations((1, -1, 2, Fraction(-1, 2))))[:m]
    data = AknsData(m, tuple(scalars.as_scalar(x, mode) for x in a), mode)
    return P, data, U


def _assert_same_series(got, want):
    assert (got.m, got.mode) == (want.m, want.mode)
    assert (got.lo, got.hi, got.valid_lo) == (want.lo, want.hi, want.valid_lo)
    # repr of the rows: lowest-terms Fractions, or doubles with their signed zeros
    assert [repr(c.rows) for c in got.coeffs] == [repr(c.rows) for c in want.coeffs]


@given(commutator_case())
@settings(max_examples=300, deadline=None)
def test_commutator_kernel_matches_the_series_composition(case):
    P, data, U = case
    try:
        want = ref_commutator(P, data, U)
    except DimensionError:  # the ranges leave no site
        with pytest.raises(DimensionError):
            commutator_with_l(P, data, U)
        return
    got = commutator_with_l(P, data, U)
    assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
    for n in got.sites():
        _assert_same_series(got.at(n), want.at(n))
    _assert_same_series(got.left_tail, want.left_tail)
    _assert_same_series(got.right_tail, want.right_tail)


@pytest.mark.parametrize("odd", [
    MatSeries.zero(2, RAT, 0, 2),  # another top degree
    MatSeries(2, RAT, 0, 1, (SmallMatrix.zero(2, RAT),) * 2, 1),  # another validity
])
def test_commutator_refuses_mixed_bands(odd):
    data = desk_data(2)
    U = vacuum_potential(Window(-2, 2, 0), 2)
    values = [MatSeries.zero(2, RAT, 0, 1)] * 5
    values[3] = odd
    P = LatticeFn(-2, 2, tuple(values), MatSeries.zero(2, RAT), MatSeries.zero(2, RAT),
                  None, RAT)
    with pytest.raises(DimensionError, match="one band"):
        commutator_with_l(P, data, U)


# -- flows read the direct resolvent through order k --------------------------------


@pytest.mark.parametrize("mode", [RAT, FLOAT])
@pytest.mark.parametrize("m", [2, 3])
def test_flow_field_reads_the_resolvent_through_order_k(m, mode):
    # the orders solved to depth k are a prefix of those solved to k + 1, and
    # the field equals the degree-0 commutator of B taken from the deeper one
    data = desk_data(m, mode)
    U = random_potential(DESK_WINDOW, data, random.Random(m + 70))
    for k in (0, 1, 2):
        for alpha in range(1, m + 1):
            short = resolvent_direct(data, U, alpha, k).series
            deep = resolvent_direct(data, U, alpha, k + 1)
            assert (short.lo, short.hi) == (deep.series.lo, deep.series.hi)
            for n in short.sites():
                s = short.at(n)
                assert (s.lo, s.hi, s.valid_lo) == (-k, 0, -k)
                assert s.coeffs == deep.series.at(n).coeffs[1:]
            comm = commutator_with_l(projector_b(deep, k, "plus"), data, U)
            f = flow_field(data, U, k, alpha, tol=1e-12 if mode == FLOAT else 0)
            assert (f.lo, f.hi) == (comm.lo, comm.hi)
            for n in f.sites():
                assert repr(f.at(n).rows) == repr(comm.at(n).get(0).rows), (k, alpha, n)


def test_projector_b_validity_depth():
    data = desk_data(2)
    r = resolvent_direct(data, impulse_potential(DESK_WINDOW, 2), 1, 2)
    b = projector_b(r, 2, "plus")  # B reads R_(0)..R_(k): k = depth suffices
    assert {(s.lo, s.hi, s.valid_lo) for s in b.values} == {(0, 2, None)}
    bbar = projector_b(r, 1, "minus")
    assert {(s.lo, s.hi, s.valid_lo) for s in bbar.values} == {(-1, -1, -1)}
    for k, part in [(2, "minus"), (-1, "plus"), (-1, "minus"), (3, "plus"),
                    (3, "minus")]:
        with pytest.raises(ValidityError):
            projector_b(r, k, part)
