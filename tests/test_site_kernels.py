"""The site kernels against the whole-lattice compositions they replace.

``resolvent_dressed``, ``_dressing_defect``, ``solve_dressing`` and
``resolvent_direct`` build each site from the values at n and n + 1: per
site in rational mode, on entry columns in float mode.  The references in
``helpers`` compose the same objects from series products, shifts and
``zip_with`` lambdas.  Both must give the same bands and, in float mode, the
same doubles down to the sign of a zero.  The rational commutator is held to
the ring operations, and the fused float kernels (the series pass with the
commutator and the defect kernel, the direct right-hand side) to the ring
operations they fuse, bit for bit, non-finite entries included (a nan stays
a nan).  The float ``solve_dressing``, ``_dressing_defect``, ``flow_field``,
``resolvent_direct``, ``commutator_with_l`` and ``dynamics.rk4_step`` are
held to the per-site kernels they replaced, refusals included.
"""

from fractions import Fraction
from functools import partial
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.errors import AknsdError, ValidityError
from aknsd.dynamics import FlowIndex, rk4_step
from aknsd.hierarchy import (
    AknsData,
    Dressing,
    HierarchyState,
    Resolvent,
    _BRACKET,
    _DEFECT,
    _DIRECT_RHS,
    _DRESSING_RHS,
    _columns,
    _commutator_site,
    _defect_site,
    _direct_rhs_site,
    _dressing_defect,
    _dressing_rhs_site,
    _inverse_step,
    _resolvent_site,
    _series_columns,
    _site_matrices,
    _solve_order,
    commutator_with_l,
    dressing_residual,
    flow_field,
    resolvent_direct,
    resolvent_dressed,
    solve_dressing,
)
from aknsd.instances import DESK_DEPTH, DESK_WINDOW, desk_data, random_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.persist import save_state
from aknsd.series import MatSeries, series_mul
from helpers import (
    RAT,
    left_mul,
    ref_commutator_site,
    ref_commutator_with_l_floats,
    ref_defect_floats,
    ref_direct_rhs,
    ref_direct_rhs_site,
    ref_dressed_resolvent,
    ref_dressing_defect,
    ref_dressing_defect_floats,
    ref_dressing_rhs,
    ref_dressing_rhs_floats,
    ref_flow_field_floats,
    ref_resolvent_direct_floats,
    ref_rk4_step,
    ref_solve_dressing_floats,
    ref_solve_order_floats,
    right_mul,
)

FLOAT = scalars.FLOAT

_ENTRIES = {
    RAT: (0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
    FLOAT: (0.0, -0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 0.1, 3.0, -1e-3),
}


# float entries for the fused kernels: signed zeros, and inf and nan
_WILD = _ENTRIES[FLOAT] + (math.inf, -math.inf, math.nan)


def _assert_same(got, want):
    """Same band, validity and entries; repr shows a float's signed zero."""
    if isinstance(want, SmallMatrix):
        assert repr(got.rows) == repr(want.rows)
        return
    assert (got.m, got.mode) == (want.m, want.mode)
    assert (got.lo, got.hi, got.valid_lo) == (want.lo, want.hi, want.valid_lo)
    assert [repr(c.rows) for c in got.coeffs] == [repr(c.rows) for c in want.coeffs]


def _assert_same_sites(got, want):
    assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
    for n in got.sites():
        _assert_same(got.at(n), want.at(n))


class _Draw:
    """Random matrices, series and lattices of one dimension and mode."""

    def __init__(self, draw, m, mode, entries=None):
        self.draw, self.m, self.mode = draw, m, mode
        self.entries = _ENTRIES[mode] if entries is None else entries

    def matrix(self):
        return SmallMatrix(self.m, self.mode, tuple(
            tuple(self.draw(st.sampled_from(self.entries)) for _ in range(self.m))
            for _ in range(self.m)))

    def matrix_tail(self):
        return SmallMatrix.zero(self.m, self.mode) if self.draw(st.booleans()) \
            else self.matrix()

    def lattice(self, lo, hi, step):
        return LatticeFn(lo, hi, tuple(self.matrix() for _ in range(lo, hi + 1)),
                         self.matrix_tail(), self.matrix_tail(), step, self.mode)

    def band(self):
        """A band, fully known or with validity from inside it."""
        lo = self.draw(st.integers(-3, 1))
        hi = lo + self.draw(st.integers(0, 3))
        return lo, hi, self.draw(st.none() | st.integers(lo, hi))

    def series(self, lo, hi, valid_lo):
        return MatSeries(self.m, self.mode, lo, hi,
                         tuple(self.matrix() for _ in range(lo, hi + 1)), valid_lo)


def _column_rhs(r, u, m, inv, rhs=_DIRECT_RHS):
    """A float right-hand side of the order loop from entry columns, one matrix per transition.

    ``rhs`` is ``_DIRECT_RHS`` (``Delta r - ((Lambda r) U - U r)``) or
    ``_DRESSING_RHS`` (``Delta r + U r``); ``r`` holds one more site than ``u``.
    """
    _, parts, op = rhs
    s, dx = parts(_columns(r), _columns(u), m, inv)
    return _site_matrices([list(map(op, d, c)) for c, d in zip(s, dx)], m,
                          partial(SmallMatrix._floats, m))


def _solve_from(data, vals, lo, step):
    """One order solved from right-hand-side matrices: rational ones as one term each,
    float ones entry by entry with ``solve_two_point``."""
    if vals and vals[0].mode == FLOAT:
        return ref_solve_order_floats(data, list(vals), lo, step)
    return _solve_order(data, [[v.numerators()] for v in vals], lo, step)


def _at_one_site(site, kernel, c, c1, u, data, inv):
    """A ``_sitewise`` kernel at one site: the rational site kernel, or the float
    series pass on one transition."""
    if c.mode == FLOAT:
        return _series_columns([c, c1], [u], data, inv, kernel)[0]
    return site(c, c1, u, a_mat=data.matrix, inv=inv)


def _data(draw, m, mode):
    a = draw(st.permutations((1, -1, 2, Fraction(-1, 2))))[:m]
    return AknsData(m, tuple(scalars.as_scalar(x, mode) for x in a), mode)


def _step(draw, mode):
    step = draw(st.sampled_from([None, Fraction(1, 2), Fraction(1, 10)]))
    return None if step is None else scalars.as_scalar(step, mode)


@st.composite
def state_case(draw):
    """A state whose dressing is solved, solved and then bumped, or random."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    rnd = _Draw(draw, m, mode)
    data = _data(draw, m, mode)
    step = _step(draw, mode)
    depth = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 0))
    hi = lo + draw(st.integers(1, 4))
    U = rnd.lattice(lo, hi, step)
    kind = draw(st.sampled_from(["solved", "bumped", "random"]))
    if kind == "random":
        ws = tuple(LatticeFn.from_values(lo, [rnd.matrix() for _ in range(lo, hi + 1)],
                                         step=step) for _ in range(depth))
    else:
        ws = solve_dressing(data, U, depth).ws
    if kind == "bumped":
        k = draw(st.integers(0, depth - 1))
        n = draw(st.integers(lo, hi))
        w = ws[k]
        vals = tuple(v + rnd.matrix() if site == n else v
                     for site, v in zip(w.sites(), w.values))
        ws = ws[:k] + (LatticeFn(lo, hi, vals, w.left_tail, w.right_tail, step, mode),) + \
            ws[k + 1:]
    return HierarchyState(data, U, Window(lo, hi, 0), Dressing(depth, ws, data.conventions()))


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_dressed_resolvent_kernel_matches_two_series_products(state):
    for alpha in range(1, state.data.m + 1):
        got = resolvent_dressed(state, alpha).series
        want = ref_dressed_resolvent(state, alpha)
        _assert_same_sites(got, want)
        _assert_same(got.left_tail, want.left_tail)
        _assert_same(got.right_tail, want.right_tail)


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_defect_kernel_matches_the_whole_lattice_sums(state):
    # the tails differ by design: the reference leaves the z-terms' tails
    # unmapped, while the kernel applies (T') to the tails as well
    _assert_same_sites(_dressing_defect(state), ref_dressing_defect(state))


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_direct_rhs_kernel_matches_the_zip_with_composition(state):
    U = state.U
    rnd_r = state.dressing.ws[0]  # any matrix lattice on U's range will do
    inv = _inverse_step(U)
    want = ref_direct_rhs(rnd_r, U)
    if U.mode == FLOAT:
        got = _column_rhs([rnd_r.at(n) for n in U.sites()], U.values[:-1], state.data.m, inv)
    else:
        got = [SmallMatrix.from_terms(_direct_rhs_site(rnd_r.at(n), rnd_r.at(n + 1), U.at(n),
                                                       inv), state.data.m)
               for n in range(U.lo, U.hi)]
    assert (want.lo, want.hi) == (U.lo, U.hi - 1)
    for n, v in zip(want.sites(), got):
        _assert_same(v, want.at(n))
    # and the whole solve: every order from the reference right-hand side
    for alpha in range(1, state.data.m + 1):
        orders = [U.constant(state.data.projector(alpha))]
        for _ in range(state.depth):
            orders.append(_solve_from(state.data, ref_direct_rhs(orders[-1], U).values,
                                      U.lo, U.step))
        series = resolvent_direct(state.data, U, alpha, state.depth).series
        for n in series.sites():
            assert [repr(c.rows) for c in series.at(n).coeffs] == \
                [repr(f.at(n).rows) for f in reversed(orders)]


def _entries(mat):
    """Rational entries, or the doubles' bit patterns (``_bits``)."""
    return _bits(mat) if mat.mode == FLOAT else mat.rows


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_dressing_solve_matches_the_whole_lattice_rhs(state):
    # every solved order: its right-hand side per site, and the order solved
    # from the whole-lattice right-hand side
    data, U = state.data, state.U
    inv = _inverse_step(U)
    w = U.constant(SmallMatrix.identity(data.m, U.mode))
    for got in solve_dressing(data, U, state.depth).ws:
        rhs = ref_dressing_rhs(w, U)
        assert (rhs.lo, rhs.hi) == (U.lo, U.hi - 1)
        if U.mode == FLOAT:
            sites = _column_rhs([w.at(n) for n in U.sites()], U.values[:-1], data.m, inv,
                                _DRESSING_RHS)
        else:
            sites = [SmallMatrix.from_terms(_dressing_rhs_site(w.at(n), w.at(n + 1), U.at(n),
                                                               inv), data.m)
                     for n in rhs.sites()]
        assert [_entries(v) for v in sites] == [_entries(v) for v in rhs.values]
        want = _solve_from(data, rhs.values, U.lo, U.step)
        assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
        assert [_entries(v) for v in got.values] == [_entries(v) for v in want.values]
        w = got


@st.composite
def site_case(draw):
    """Series of one band (fully known or truncated) and a matrix, at one site."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    rnd = _Draw(draw, m, mode)
    band = rnd.band()
    return (rnd.series(*band), rnd.series(*band), rnd.series(*rnd.band()), rnd.matrix(),
            _data(draw, m, mode), _step(draw, mode))


@given(site_case())
@settings(max_examples=300, deadline=None)
def test_site_kernels_on_any_band(case):
    c, c1, other, u, data, step = case
    a_mat = data.matrix
    for k in range(c.m):
        e_k = MatSeries.constant(data.projector(k + 1))
        for w, wi in ((c, other), (other, c)):
            try:
                want = series_mul(series_mul(w, e_k), wi)
            except ValidityError:
                with pytest.raises(ValidityError):
                    _resolvent_site(w, wi, k)
                continue
            _assert_same(_resolvent_site(w, wi, k), want)
    inv = None if step is None else scalars.one(c.mode) / step
    diff = c1 - c if inv is None else (c1 - c).scale(inv)
    want = ((diff + left_mul(u, c)) - left_mul(a_mat, c).shift_degree(1)) + \
        right_mul(c1, a_mat).shift_degree(1)
    _assert_same(_at_one_site(_defect_site, _DEFECT, c, c1, u, data, inv), want)
    got = _at_one_site(_commutator_site, _BRACKET, c, c1, u, data, inv)
    first = c.lo if c.valid_lo is None else c.valid_lo + 1
    assert (got.lo, got.hi, got.valid_lo) == \
        (first, c.hi + 1, None if c.valid_lo is None else first)
    assert [_entries(x) for x in got.coeffs] == \
        [_entries(x) for x in ref_commutator_site(c, c1, u, a_mat, inv)]


def test_site_kernels_fill_no_fraction_row_cache(tmp_path):
    # rows hands out Fractions and caches them on the matrix; the kernels and
    # the state writer read the integer numerators only, so the solved
    # coefficients stay lean
    data = desk_data(3)
    U = random_potential(DESK_WINDOW, data, random.Random(5))
    state = HierarchyState.solve(data, U, DESK_WINDOW, DESK_DEPTH)
    coeffs = [c for f in (state.hat, state.hat_inverse)
              for s in (*f.values, f.left_tail, f.right_tail) for c in s.coeffs]
    lean = [c for c in coeffs if c._rows is None]
    assert len(lean) > len(coeffs) // 2  # all but the built-in identities and zeros
    for alpha in range(1, data.m + 1):
        resolvent_dressed(state, alpha)
        resolvent_direct(data, U, alpha, DESK_DEPTH)
    assert dressing_residual(state) == 0
    save_state(state, str(tmp_path / "state.json"))
    assert all(c._rows is None for c in lean)


def _bits(mat):
    """The entries' IEEE bit patterns, so a signed zero counts.

    A nan is only "nan": CPython's inlined float operators and ``operator.sub``
    may pick the other operand's nan, so its sign bit is not an output.
    """
    return ["nan" if x != x else struct.pack("d", x) for row in mat.rows for x in row]


@st.composite
def fused_case(draw):
    """Float series of one band, a matrix and an instance, at m = 2 or 3."""
    m = draw(st.integers(2, 3))
    rnd = _Draw(draw, m, FLOAT, _WILD if draw(st.booleans()) else None)
    band = rnd.band()
    step = draw(st.sampled_from([None, 0.5, 0.1]))  # 1/0.1 is not a power of two
    return rnd.series(*band), rnd.series(*band), rnd.matrix(), _data(draw, m, FLOAT), step


@given(fused_case())
@settings(max_examples=400, deadline=None)
def test_fused_float_kernels_match_the_ring_operations_bit_for_bit(case):
    c, c1, u, data, step = case
    a_mat = data.matrix
    inv = None if step is None else 1.0 / step
    got = _series_columns([c, c1], [u], data, inv, _BRACKET)[0]
    want = ref_commutator_site(c, c1, u, a_mat, inv)
    assert got.hi == c.hi + 1 and len(got.coeffs) == len(want)
    assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want]
    got = _series_columns([c, c1], [u], data, inv, _DEFECT)[0]
    want = ref_defect_floats(c, c1, u, a_mat, inv)
    assert (got.lo, got.hi, got.valid_lo) == (want.lo, want.hi, want.valid_lo)
    assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want.coeffs]
    for x, x1 in zip(c.coeffs, c1.coeffs):
        assert [_bits(v) for v in _column_rhs([x, x1], [u], c.m, inv)] == \
            [_bits(ref_direct_rhs_site(x, x1, u, inv))]
        assert [_bits(v) for v in _column_rhs([x, x1], [u], c.m, inv, _DRESSING_RHS)] == \
            [_bits(ref_dressing_rhs_floats(x, x1, u, inv))]


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except AknsdError as exc:
        return type(exc).__name__, str(exc)


def _value_bits(v):
    """A matrix's bit patterns, or a series' band, validity and coefficients' bit patterns."""
    if isinstance(v, SmallMatrix):
        return v.mode, _bits(v)
    return v.mode, v.lo, v.hi, v.valid_lo, [_bits(c) for c in v.coeffs]


def _same_outcome(got, want):
    """Both refused with the same error and message, or the same lattices bit for bit."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    if isinstance(want, Dressing):
        assert (got.depth, got.conventions) == (want.depth, want.conventions)
        for g, w in zip(got.ws, want.ws, strict=True):
            _same_outcome(g, w)
        return
    if isinstance(want, Resolvent):
        got, want = got.series, want.series
    assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
    assert [_value_bits(v) for v in (*got.values, got.left_tail, got.right_tail)] == \
        [_value_bits(v) for v in (*want.values, want.left_tail, want.right_tail)]


def _potential(draw, rnd, m, step):
    """A float potential on one to six sites, possibly faulty.

    A fault puts a value of another dimension or mode into U, at a
    transition, at its last site or in a tail, or makes U rational.
    """
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.sampled_from([0, 1, 2, 3, 4, 5]))
    U = rnd.lattice(lo, hi, step)
    fault = draw(st.sampled_from([None] * 12 + ["site", "last", "tail", "rational"]))
    if fault == "rational":
        return _Draw(draw, m, RAT).lattice(lo, hi, None if step is None else Fraction(step))
    if fault is not None:
        bad = draw(st.sampled_from([SmallMatrix.zero(m + 1, FLOAT), SmallMatrix.zero(m, RAT)]))
        vals, tails = list(U.values), [U.left_tail, U.right_tail]
        if fault == "tail":
            tails[draw(st.integers(0, 1))] = bad
        else:
            vals[draw(st.integers(0, len(vals) - 1)) if fault == "site" else -1] = bad
        U = LatticeFn(lo, hi, tuple(vals), *tails, step, FLOAT)
    return U


def _flow_index(draw, m):
    """k from -1 and alpha one past 1..m on both sides, for the refusals."""
    return draw(st.integers(-1, 3)), draw(st.sampled_from([*range(1, m + 1)] * 4 + [0, m + 1]))


@st.composite
def column_case(draw):
    """A float instance, a potential (``_potential``), a flow index
    (``_flow_index``), a series lattice and a random dressing.

    The dressing solve and defect read the instance, or in some examples the
    same A in rational mode.
    """
    m = draw(st.integers(2, 3))
    rnd = _Draw(draw, m, FLOAT, _WILD if draw(st.booleans()) else None)
    data = _data(draw, m, FLOAT)
    dressing_data = data if draw(st.integers(0, 3)) else \
        AknsData(m, tuple(Fraction(x) for x in data.a), RAT)
    step = draw(st.sampled_from([None, 0.5, 0.1]))  # 1/0.1 is not a power of two
    U = _potential(draw, rnd, m, step)
    lo, hi = U.lo, U.hi
    k, alpha = _flow_index(draw, m)
    band = rnd.band()
    plo = lo + draw(st.integers(-1, 1))
    phi = plo + draw(st.sampled_from([0, 1, 2, 3, 4, 5, 3, 4]))
    tails = [rnd.series(*rnd.band()) if draw(st.booleans()) else MatSeries.zero(m, FLOAT)
             for _ in range(2)]
    P = LatticeFn(plo, phi, tuple(rnd.series(*band) for _ in range(plo, phi + 1)), *tails,
                  step, FLOAT)
    tol = draw(st.sampled_from([0, 1e-8, math.inf]))
    ws = tuple(rnd.lattice(lo, hi, step) for _ in range(draw(st.integers(1, 3))))
    state = HierarchyState(dressing_data, U, Window(lo, hi, 0),
                           Dressing(len(ws), ws, dressing_data.conventions()))
    return data, U, k, alpha, P, tol, state


@given(column_case())
@settings(max_examples=400, deadline=None)
def test_float_column_passes_match_the_per_site_kernels(case):
    data, U, k, alpha, P, tol, state = case
    _same_outcome(_outcome(_dressing_defect, state),
                  _outcome(ref_dressing_defect_floats, state))
    if U.mode == FLOAT:  # a rational U is solved in rational mode
        for depth in (k, state.depth):
            solved = _outcome(solve_dressing, state.data, U, depth)
            _same_outcome(solved, _outcome(ref_solve_dressing_floats, state.data, U, depth))
        if isinstance(solved, Dressing):  # and the defect of the solved dressing
            solved = HierarchyState(state.data, U, state.window, solved)
            _same_outcome(_outcome(_dressing_defect, solved),
                          _outcome(ref_dressing_defect_floats, solved))
    _same_outcome(_outcome(flow_field, data, U, k, alpha, tol=tol),
                  _outcome(ref_flow_field_floats, data, U, k, alpha, tol=tol))
    _same_outcome(_outcome(resolvent_direct, data, U, alpha, k),
                  _outcome(ref_resolvent_direct_floats, data, U, alpha, k))
    _same_outcome(_outcome(commutator_with_l, P, data, U),
                  _outcome(ref_commutator_with_l_floats, P, data, U))


@st.composite
def rk4_case(draw):
    """A float instance, a potential (``_potential``), a flow index (``_flow_index``)
    and a step h: the bilinear path's negative one, a signed zero or an exact one."""
    m = draw(st.integers(2, 3))
    rnd = _Draw(draw, m, FLOAT, _WILD if draw(st.booleans()) else None)
    data = _data(draw, m, FLOAT)
    U = _potential(draw, rnd, m, draw(st.sampled_from([None, 0.5, 0.1])))
    h = draw(st.sampled_from([0.01, 0.05, -0.01, 0.0, -0.0, Fraction(1, 10)]))
    return data, U, h, FlowIndex(*_flow_index(draw, m))


@given(rk4_case())
@settings(max_examples=300, deadline=None)
def test_rk4_step_matches_the_per_site_stages_bit_for_bit(case):
    data, U, h, flow = case
    _same_outcome(_outcome(rk4_step, data, U, h, flow),
                  _outcome(ref_rk4_step, data, U, h, flow))
