"""The per-site kernels against the whole-lattice compositions they replace.

``resolvent_dressed``, ``_dressing_defect``, ``solve_dressing`` and
``resolvent_direct`` build each site from the values at n and n + 1.  The
references in ``helpers`` compose the same objects from series products,
shifts and ``zip_with`` lambdas.  Both must give the same bands and, in
float mode, the same doubles down to the sign of a zero.  The rational
commutator is held to the ring operations, and the fused float kernels of
the flow path (``_commutator_site``, ``_direct_rhs_site``,
``dynamics._axpy``) to the ring operations they fuse, bit for bit,
non-finite entries included (a nan stays a nan).
"""

from fractions import Fraction
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.errors import ValidityError
from aknsd.dynamics import _axpy
from aknsd.hierarchy import (
    AknsData,
    Dressing,
    HierarchyState,
    _commutator_site,
    _defect_site,
    _direct_rhs_site,
    _dressing_defect,
    _dressing_rhs_site,
    _inverse_step,
    _resolvent_site,
    _solve_order,
    dressing_residual,
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
    ref_axpy,
    ref_commutator_site,
    ref_direct_rhs,
    ref_direct_rhs_site,
    ref_dressed_resolvent,
    ref_dressing_defect,
    ref_dressing_rhs,
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


def _matrix(rhs, m):
    """A right-hand-side kernel's result as a matrix: rational terms are summed."""
    return rhs if isinstance(rhs, SmallMatrix) else SmallMatrix.from_terms(rhs, m)


def _order_rhs(vals):
    """Matrices as the right-hand sides ``_solve_order`` reads: rational ones as one term."""
    return [v if v.mode == FLOAT else [v.numerators()] for v in vals]


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
    got = [_matrix(_direct_rhs_site(rnd_r.at(n), rnd_r.at(n + 1), U.at(n), inv), state.data.m)
           for n in range(U.lo, U.hi)]
    assert (want.lo, want.hi) == (U.lo, U.hi - 1)
    for n, v in zip(want.sites(), got):
        _assert_same(v, want.at(n))
    # and the whole solve: every order from the reference right-hand side
    for alpha in range(1, state.data.m + 1):
        orders = [U.constant(state.data.projector(alpha))]
        for _ in range(state.depth):
            orders.append(_solve_order(state.data,
                                       _order_rhs(ref_direct_rhs(orders[-1], U).values),
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
        assert [_entries(_matrix(_dressing_rhs_site(w.at(n), w.at(n + 1), U.at(n), inv), data.m))
                for n in rhs.sites()] == [_entries(v) for v in rhs.values]
        want = _solve_order(data, _order_rhs(rhs.values), U.lo, U.step)
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
    _assert_same(_defect_site(c, c1, u, a_mat=a_mat, inv=inv), want)
    got = _commutator_site(c, c1, u, a_mat=a_mat, inv=inv)
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
    """Float series of one band, a matrix lattice pair and a scalar, at m = 2 or 3."""
    m = draw(st.integers(2, 3))
    rnd = _Draw(draw, m, FLOAT, _WILD if draw(st.booleans()) else None)
    band = rnd.band()
    step = draw(st.sampled_from([None, 0.5, 0.1]))  # 1/0.1 is not a power of two
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(0, 3))
    scale = draw(st.sampled_from([0.5, 0.05 / 6, -0.3, 1 / 3, 0.0, -0.0]))
    return (rnd.series(*band), rnd.series(*band), rnd.matrix(), _data(draw, m, FLOAT), step,
            rnd.lattice(lo, hi, step), rnd.lattice(lo, hi, step), scale)


@given(fused_case())
@settings(max_examples=400, deadline=None)
def test_fused_float_kernels_match_the_ring_operations_bit_for_bit(case):
    c, c1, u, data, step, f, g, scale = case
    a_mat = data.matrix
    inv = None if step is None else 1.0 / step
    got = _commutator_site(c, c1, u, a_mat=a_mat, inv=inv)
    want = ref_commutator_site(c, c1, u, a_mat, inv)
    assert got.hi == c.hi + 1 and len(got.coeffs) == len(want)
    assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want]
    for x, x1 in zip(c.coeffs, c1.coeffs):
        assert _bits(_direct_rhs_site(x, x1, u, inv)) == _bits(ref_direct_rhs_site(x, x1, u, inv))
    got, want = _axpy(f, scale, g), ref_axpy(f, scale, g)
    assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
    for x, y in zip((*got.values, got.left_tail, got.right_tail),
                    (*want.values, want.left_tail, want.right_tail)):
        assert _bits(x) == _bits(y)
