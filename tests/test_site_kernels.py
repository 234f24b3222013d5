"""The site kernels against the whole-lattice compositions they replace.

``resolvent_dressed``, the dressing defect, ``solve_dressing`` and
``resolvent_direct`` build each site from the values at n and n + 1, and
``hat_inverse`` from the orders at n: on entry columns in both modes.  The
references in ``helpers`` compose the same objects from series products
(``series_inverse`` per site for ``hat_inverse``), shifts and ``zip_with``
lambdas, and solve each order entry by entry with ``solve_two_point`` on
``Fraction``s or doubles.  Both must give the same
bands and, in float mode, the same doubles down to the sign of a zero.  The
exact column passes (the series pass with the commutator and the defect
kernel, both right-hand sides) are held to the ring operations, and the
fused float kernels to the ring operations they fuse, bit for bit,
non-finite entries included (a nan stays a nan).  The float
``solve_dressing``, the dressing defect, ``flow_field``,
``resolvent_direct``, ``commutator_with_l`` and ``dynamics.rk4_step`` are
held to the per-site kernels they replaced, refusals included, on every
potential that fits the instance; a value of another dimension or mode is
refused when its lattice is built, and a potential of the other mode by
``hierarchy._check_instance`` and by the door of a state.  A state's halo
covers its depth, so the shapes no state has (one transition, or a deep
dressing on few sites) go to the kernels themselves.
"""

from fractions import Fraction
from functools import partial
import math
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from aknsd import scalars
from aknsd.baker import _region
from aknsd.columns import _ColumnSeries
from aknsd.errors import AknsdError, DimensionError, ModeError
from aknsd.dynamics import FlowIndex, rk4_step
from aknsd.hierarchy import (
    AknsData,
    Dressing,
    HierarchyState,
    Resolvent,
    _DIRECT_RHS,
    _DRESSING_RHS,
    _bracket_degree,
    _defect_degree,
    _kit,
    _series_columns,
    _transition_pass,
    commutator_with_l,
    dressing_residual,
    flow_field,
    resolvent_direct,
    resolvent_dressed,
    solve_dressing,
)
from aknsd.instances import DESK_DEPTH, DESK_WINDOW, desk_data, random_potential, vacuum_potential
from aknsd.lattice import LatticeFn, Window, inverse_step
from aknsd.matrices import SmallMatrix
from aknsd.persist import save_state
from aknsd.series import MatSeries, series_inverse
from helpers import (
    RAT,
    _orders_to_series,
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
    ref_sitewise,
    ref_solve_dressing_floats,
    ref_solve_order,
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


def _defect_pass(P, U):
    """The merged pass with the defect kernel, as a lattice of series (zero tails)."""
    return _transition_pass(P, U, _defect_degree).lattice()


def _defect(state):
    """Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A of a state, on its
    transitions."""
    return _defect_pass(state._columns.hat, state.U)


def _assert_same_lattice(got, want):
    """Same sites, values and tails, entry by entry by repr."""
    _assert_same_sites(got, want)
    _assert_same(got.left_tail, want.left_tail)
    _assert_same(got.right_tail, want.right_tail)


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


def _column_rhs(data, r, u, inv, rhs=_DIRECT_RHS):
    """A right-hand side of the order loop from entry columns, one matrix per transition.

    ``rhs`` is ``_DIRECT_RHS`` (``Delta r - ((Lambda r) U - U r)``) or
    ``_DRESSING_RHS`` (``Delta r + U r``); ``r`` holds one more site than ``u``.
    """
    kit = _kit(data)
    s, dx = rhs.parts(kit, kit.read(r), kit.read(u), inv)
    return kit.build(kit.combine(dx, s, rhs.op))


def _data(draw, m, mode):
    a = draw(st.permutations((1, -1, 2, Fraction(-1, 2))))[:m]
    return AknsData(m, tuple(scalars.as_scalar(x, mode) for x in a), mode)


def _step(draw, mode):
    step = draw(st.sampled_from([None, Fraction(1, 2), Fraction(1, 10)]))
    return None if step is None else scalars.as_scalar(step, mode)


@st.composite
def state_case(draw):
    """A state whose dressing is solved, solved and then bumped, or random, and a
    range of two to five of its sites (the cut).

    The state's window has a halo that covers its depth, so it stores at
    least 2 * depth + 1 sites.  The cut reaches the shapes no state has, a
    single transition or a deep dressing on few sites, through the kernels
    themselves.
    """
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    rnd = _Draw(draw, m, mode)
    data = _data(draw, m, mode)
    step = _step(draw, mode)
    depth = draw(st.integers(1, 3))
    n_min = draw(st.integers(-3, 0))
    window = Window(n_min, n_min + draw(st.integers(0, 1)), draw(st.integers(depth, 3)))
    lo, hi = window.stored_lo, window.stored_hi
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
    transitions = draw(st.integers(1, min(4, hi - lo)))
    cut_lo = draw(st.integers(lo, hi - transitions))
    return (HierarchyState(data, U, window, Dressing(depth, ws, data.conventions())),
            (cut_lo, cut_lo + transitions))


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_dressed_resolvent_kernel_matches_two_series_products(case):
    state, _ = case
    for alpha in range(1, state.data.m + 1):
        _assert_same_lattice(resolvent_dressed(state, alpha).series,
                             ref_dressed_resolvent(state, alpha))


@st.composite
def deep_state(draw):
    """A state of depth 1..8 on steps 1 and 1/2, its dressing solved or random,
    with a region of one to three sites, in both modes at m = 2 and 3.

    The entries come from a seeded ``random.Random``, so a deep state fits in
    Hypothesis's buffer.
    """
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    data = _data(draw, m, mode)
    step = draw(st.sampled_from([None, scalars.as_scalar(Fraction(1, 2), mode)]))
    depth = draw(st.integers(1, 8))
    n_min = draw(st.integers(-2, 0))
    window = Window(n_min, n_min + draw(st.integers(0, 2)), depth)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def lattice():
        return LatticeFn.from_values(window.stored_lo, [
            SmallMatrix(m, mode, [[rng.choice(_ENTRIES[mode]) for _ in range(m)]
                                  for _ in range(m)])
            for _ in range(window.stored_lo, window.stored_hi + 1)], step=step)

    U = lattice()
    if draw(st.booleans()):
        ws = solve_dressing(data, U, depth).ws
    else:
        ws = tuple(lattice() for _ in range(depth))
    return HierarchyState(data, U, window, Dressing(depth, ws, data.conventions()))


_VACUUM = Window(0, 0, 2)


@given(deep_state())
# the float vacuum: every v_j is -0.0 at every site, which the float build
# must not share as the +0.0 zero
@example(HierarchyState.solve(desk_data(2, FLOAT), vacuum_potential(_VACUUM, 2, FLOAT),
                              _VACUUM, 2))
@settings(max_examples=150, deadline=None)
def test_column_inverse_and_resolvents_match_the_per_site_products(state):
    # on the state and on the region a bilinear residual reads: w_hat^{-1}
    # against series_inverse per site, and each R_alpha against two series
    # products per site, down to the sign of a zero
    region = _region(state)
    cut = state.hat.restrict(region.hat.n_lo, region.hat.n_hi)
    for hat, inv, resolvent in (
            (state.hat, state.hat_inverse, lambda a: resolvent_dressed(state, a).series),
            (cut, region.hat_inverse.lattice(), lambda a: region.resolvent(a).lattice())):
        ref = SimpleNamespace(hat=hat, data=state.data, hat_inverse=hat.map(
            lambda w: series_inverse(w, state.depth), map_tails=False))
        _assert_same_lattice(inv, ref.hat_inverse)
        for alpha in range(1, state.data.m + 1):
            _assert_same_lattice(resolvent(alpha), ref_dressed_resolvent(ref, alpha))


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_defect_kernel_matches_the_whole_lattice_sums(case):
    # the sites only: the pass forms no tail, and the reference leaves the
    # z-terms' tails unmapped
    state, (a, b) = case
    want = ref_dressing_defect(state)
    _assert_same_sites(_defect(state), want)
    # and on the cut, down to one transition, through the kernel itself
    _assert_same_sites(_defect_pass(state._columns.hat.restrict(a, b), state.U.restrict(a, b)),
                       want.restrict(a, b - 1))


@given(state_case())
@settings(max_examples=150, deadline=None)
def test_direct_rhs_kernel_matches_the_zip_with_composition(case):
    state, (a, b) = case
    U = state.U.restrict(a, b)
    rnd_r = state.dressing.ws[0].restrict(a, b)  # any matrix lattice on U's range will do
    inv = inverse_step(U)
    want = ref_direct_rhs(rnd_r, U)
    got = _column_rhs(state.data, [rnd_r.at(n) for n in U.sites()], U.values[:-1], inv)
    assert (want.lo, want.hi) == (U.lo, U.hi - 1)
    for n, v in zip(want.sites(), got):
        _assert_same(v, want.at(n))
    # and the whole solve: every order from the reference right-hand side
    for alpha in range(1, state.data.m + 1):
        orders = [U.constant(state.data.projector(alpha))]
        for _ in range(state.depth):
            orders.append(ref_solve_order(state.data, ref_direct_rhs(orders[-1], U).values,
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
def test_dressing_solve_matches_the_whole_lattice_rhs(case):
    # every solved order of the cut: its right-hand side per site, and the
    # order solved from the whole-lattice right-hand side
    state, (a, b) = case
    data, U = state.data, state.U.restrict(a, b)
    inv = inverse_step(U)
    w = U.constant(SmallMatrix.identity(data.m, U.mode))
    for got in solve_dressing(data, U, state.depth).ws:
        rhs = ref_dressing_rhs(w, U)
        assert (rhs.lo, rhs.hi) == (U.lo, U.hi - 1)
        sites = _column_rhs(data, [w.at(n) for n in U.sites()], U.values[:-1], inv,
                            _DRESSING_RHS)
        assert [_entries(v) for v in sites] == [_entries(v) for v in rhs.values]
        want = ref_solve_order(data, rhs.values, U.lo, U.step)
        assert (got.lo, got.hi, got.step, got.mode) == (want.lo, want.hi, want.step, want.mode)
        assert [_entries(v) for v in got.values] == [_entries(v) for v in want.values]
        w = got


def _one_site(c, c1, u, data, inv, degree):
    """The series pass on the one transition from the series c to c1, with U = u there."""
    kit = _kit(data)
    p = _ColumnSeries.read(kit, LatticeFn(0, 1, (c, c1), c, c, None, c.mode))
    return _series_columns(p, kit.read([u]), inv, degree).lattice().values[0]


@st.composite
def site_case(draw):
    """Series of one band (fully known or truncated) and a matrix, at one site."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    rnd = _Draw(draw, m, mode)
    band = rnd.band()
    return rnd.series(*band), rnd.series(*band), rnd.matrix(), _data(draw, m, mode), \
        _step(draw, mode)


@given(site_case())
@settings(max_examples=300, deadline=None)
def test_site_kernels_on_any_band(case):
    c, c1, u, data, step = case
    a_mat = data.matrix
    inv = scalars.one(c.mode) if step is None else scalars.one(c.mode) / step
    diff = (c1 - c).scale(inv)
    want = ((diff + left_mul(u, c)) - left_mul(a_mat, c).shift_degree(1)) + \
        right_mul(c1, a_mat).shift_degree(1)
    _assert_same(_one_site(c, c1, u, data, inv, _defect_degree), want)
    got = _one_site(c, c1, u, data, inv, _bracket_degree)
    first = c.lo if c.valid_lo is None else c.valid_lo + 1
    assert (got.lo, got.hi, got.valid_lo) == \
        (first, c.hi + 1, None if c.valid_lo is None else first)
    assert [_entries(x) for x in got.coeffs] == \
        [_entries(x) for x in ref_commutator_site(c, c1, u, a_mat, inv)]


def _coefficients(*lattices):
    """Every coefficient of series lattices, at their sites and in their tails."""
    return [c for f in lattices for s in (*f.values, f.left_tail, f.right_tail)
            for c in s.coeffs]


def test_site_kernels_fill_no_fraction_row_cache(tmp_path):
    # rows hands out Fractions and caches them on the matrix; the passes and
    # the state writer read the integer numerators only, so the solved
    # coefficients stay lean
    data = desk_data(3)
    U = random_potential(DESK_WINDOW, data, random.Random(5))
    state = HierarchyState.solve(data, U, DESK_WINDOW, DESK_DEPTH)
    # the dressing's snapshot is taken before any resolvent is formed from it
    hat = _coefficients(state.hat, state.hat_inverse)
    lean_hat = [c for c in hat if c._rows is None]
    assert len(lean_hat) > len(hat) // 2  # all but the built-in identities and zeros
    resolvents = [f(alpha).series for alpha in range(1, data.m + 1)
                  for f in (partial(resolvent_dressed, state),
                            partial(resolvent_direct, data, U, depth=DESK_DEPTH))]
    assert all(c._rows is None for c in lean_hat)
    res = _coefficients(*resolvents)
    lean_res = [c for c in res if c._rows is None]
    assert len(lean_res) > len(res) // 2
    assert dressing_residual(state) == 0
    fields = [flow_field(data, U, k, alpha) for k in range(3) for alpha in range(1, data.m + 1)]
    brackets = [commutator_with_l(r, data, U) for r in resolvents]
    save_state(state, str(tmp_path / "state.json"))
    assert all(c._rows is None for c in lean_hat + lean_res)
    # and what the passes built is lean too
    assert all(v._rows is None for f in fields for v in f.values)
    assert all(c._rows is None for c in _coefficients(*brackets))


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


def _inf_facing_zeros():
    """An inf entry in P and a U of zeros: each product term inf * 0.0 is nan, so a
    float kernel that dropped the terms with an all-zero factor column would read 0."""
    inf_series = MatSeries(2, FLOAT, 0, 0, (SmallMatrix(2, FLOAT, ((math.inf, 0.0), (0.0, 1.0))),),
                           None)
    return (inf_series, inf_series, SmallMatrix.zero(2, FLOAT),
            AknsData(2, (1.0, -1.0), FLOAT), None)


@given(fused_case())
@example(_inf_facing_zeros())
@settings(max_examples=400, deadline=None)
def test_fused_float_kernels_match_the_ring_operations_bit_for_bit(case):
    c, c1, u, data, step = case
    a_mat = data.matrix
    inv = 1.0 if step is None else 1.0 / step
    got = _one_site(c, c1, u, data, inv, _bracket_degree)
    want = ref_commutator_site(c, c1, u, a_mat, inv)
    assert got.hi == c.hi + 1 and len(got.coeffs) == len(want)
    assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want]
    got = _one_site(c, c1, u, data, inv, _defect_degree)
    want = ref_defect_floats(c, c1, u, a_mat, inv)
    assert (got.lo, got.hi, got.valid_lo) == (want.lo, want.hi, want.valid_lo)
    assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want.coeffs]
    for x, x1 in zip(c.coeffs, c1.coeffs):
        assert [_bits(v) for v in _column_rhs(data, [x, x1], [u], inv)] == \
            [_bits(ref_direct_rhs_site(x, x1, u, inv))]
        assert [_bits(v) for v in _column_rhs(data, [x, x1], [u], inv, _DRESSING_RHS)] == \
            [_bits(ref_dressing_rhs_floats(x, x1, u, inv))]


@given(fused_case())
@settings(max_examples=200, deadline=None)
def test_float_scalings_are_the_diagonal_products_bit_for_bit(case):
    # each entry is 0 + a_r x_rk (or 0 + x_rk a_k), as ``mul_diag`` forms it,
    # so a -0.0 product reads +0.0; the kernels above cannot show the sign,
    # because no operand that meets a scaling there is -0.0
    c, _, u, data, _ = case
    kit, x = _kit(data), c.coeffs[0]
    right, left = kit.scalings(kit.read([u, x]))
    assert [_bits(v) for v in kit.build([list(v) for v in left])] == \
        [_bits(v.mul_diag(data.matrix, left=True)) for v in (u, x)]
    assert [_bits(v) for v in kit.build([list(v) for v in right])] == \
        [_bits(x.mul_diag(data.matrix, left=False))]


# U's entries for the first order's examples: -0.0 in row 1 and column 1, where
# E_1 keeps U's entries; 1e308 twice in one column, whose sum overflows though
# every entry is finite; an inf facing E_1's zeros, where a product term is nan
_NEGATIVE_ZEROS = (((-0.0, -0.0), (-0.0, 0.5)), ((-0.0, 0.25), (-1.0, -0.0)),
                   ((-0.0, -0.0), (-0.0, -2.25)), ((0.1, -0.0), (-0.0, 3.0)))
_OVERFLOW = (((0.0, 1e308), (-0.5, 0.0)), ((0.0, 1e308), (0.25, 0.0)),
             ((0.0, 0.5), (-1.0, 0.0)), ((0.0, -0.0), (0.1, 0.0)))
_INF = (((0.0, 0.5), (math.inf, -0.0)), ((0.0, 0.25), (-1.0, 0.0)))


def _diagonal_example(rows, left):
    """U's values ``rows`` at m = 2 with E_1 on the side ``left``."""
    data = AknsData(2, (1.0, -1.0), FLOAT)
    return data, [SmallMatrix(2, FLOAT, r) for r in rows], data.projector(1), left


@st.composite
def diagonal_case(draw):
    """A float instance, U's values at one to four transitions (signed zeros, and in
    some examples inf and nan), a diagonal matrix x (the identity, a projector
    E_alpha or A) and the side of x."""
    m = draw(st.integers(2, 3))
    data = _data(draw, m, FLOAT)
    rnd = _Draw(draw, m, FLOAT, _WILD if draw(st.booleans()) else None)
    u = [rnd.matrix() for _ in range(draw(st.integers(1, 4)))]
    x = draw(st.sampled_from([SmallMatrix.identity(m, FLOAT), data.projector(1),
                              data.projector(m), data.matrix]))
    return data, u, x, draw(st.booleans())


@given(diagonal_case())
@example(_diagonal_example(_NEGATIVE_ZEROS, True))
@example(_diagonal_example(_NEGATIVE_ZEROS, False))
@example(_diagonal_example(_OVERFLOW, False))
@example(_diagonal_example(_INF, False))
@settings(max_examples=300, deadline=None)
def test_float_diagonal_products_are_the_ring_products_bit_for_bit(case):
    # the first order's products: row or column scalings when U is finite
    # (0 + d_r u_rk, so a -0.0 reads +0.0), the products themselves otherwise
    data, u, x, left = case
    kit = _kit(data)
    got = kit.build(kit.diagonal_product(x, kit.read(u), left))
    assert [_bits(v) for v in got] == [_bits(x @ v if left else v @ x) for v in u]


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
    """A float potential on one to six sites, or in some examples a rational one."""
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.sampled_from([0, 1, 2, 3, 4, 5]))
    if draw(st.sampled_from([False] * 12 + [True])):
        return _Draw(draw, m, RAT).lattice(lo, hi, None if step is None else Fraction(step))
    return rnd.lattice(lo, hi, step)


@st.composite
def faulty_potential(draw):
    """The fields of a float potential with one value of another dimension or mode:
    at a transition, at its last site or in a tail."""
    m = draw(st.integers(2, 3))
    lo = draw(st.integers(-2, 1))
    U = _Draw(draw, m, FLOAT).lattice(lo, lo + draw(st.integers(0, 5)), None)
    bad = draw(st.sampled_from([SmallMatrix.zero(m + 1, FLOAT), SmallMatrix.zero(m, RAT)]))
    vals, tails = list(U.values), [U.left_tail, U.right_tail]
    fault = draw(st.sampled_from(["site", "last", "tail"]))
    if fault == "tail":
        tails[draw(st.integers(0, 1))] = bad
    else:
        vals[draw(st.integers(0, len(vals) - 1)) if fault == "site" else -1] = bad
    return (U.lo, U.hi, tuple(vals), *tails, U.step, U.mode), bad.m != m


@given(faulty_potential())
@settings(max_examples=200, deadline=None)
def test_a_potential_with_a_faulty_value_is_refused_when_built(case):
    fields, other_dimension = case
    with pytest.raises(DimensionError if other_dimension else ModeError):
        LatticeFn(*fields)


def _flow_index(draw, m):
    """k from -1 and alpha one past 1..m on both sides, for the refusals."""
    return draw(st.integers(-1, 3)), draw(st.sampled_from([*range(1, m + 1)] * 4 + [0, m + 1]))


@st.composite
def column_case(draw):
    """A float instance, a potential (``_potential``), a flow index
    (``_flow_index``), a series lattice and a random dressing.

    The dressing is in the potential's mode and is read with the instance,
    or in some examples with the same A in rational mode, which a float
    potential does not fit; a rational potential keeps the float instance,
    which it does not fit.  Where the potential stores 2 * depth + 1 sites
    or more, the dressing comes with a window whose halo covers its depth,
    on which it can be a state; elsewhere the window is None.
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
    if U.mode != FLOAT:
        rnd, dressing_data = _Draw(draw, m, RAT), data
    ws = tuple(rnd.lattice(lo, hi, U.step) for _ in range(draw(st.integers(1, 3))))
    window = None
    if hi - lo >= 2 * len(ws):
        halo = draw(st.integers(len(ws), (hi - lo) // 2))
        window = Window(lo + halo, hi - halo, halo)
    return data, U, k, alpha, P, tol, (dressing_data, ws, window)


def _hat(U, ws):
    """I + sum_k w_k z^-k per site, as ``HierarchyState.hat`` forms it."""
    return _orders_to_series([U.constant(SmallMatrix.identity(U.m, U.mode)), *ws], U.m)


def _defects(data, U, ws, window):
    """The outcomes of the dressing defect of the orders ``ws`` and of its per-site
    reference: of the state on ``window``, or without a window, of the kernel."""
    if window is not None:
        state = HierarchyState(data, U, window, Dressing(len(ws), ws, data.conventions()))
        return _outcome(_defect, state), _outcome(ref_dressing_defect_floats, state)
    hat = _hat(U, ws)
    return (_outcome(_defect_pass, _ColumnSeries.read(_kit(data), hat), U),
            _outcome(ref_sitewise, hat, data, U, ref_defect_floats))


def _first_order_example(rows, k):
    """A case of ``column_case`` at m = 2, alpha = 1, tol = inf, whose potential holds
    ``rows`` at four sites, with one dressing order (U itself) on a window."""
    data = AknsData(2, (1.0, -1.0), FLOAT)
    U = LatticeFn.from_values(0, [SmallMatrix(2, FLOAT, r) for r in rows])
    series = MatSeries(2, FLOAT, -1, 0, (U.values[1], U.values[3]), None)
    zero = MatSeries.zero(2, FLOAT)
    P = LatticeFn(0, 2, (series,) * 3, zero, zero, None, FLOAT)
    return data, U, k, 1, P, math.inf, (data, (U,), Window(1, 2, 1))


@given(column_case())
@example(_first_order_example(_NEGATIVE_ZEROS, 0))
@example(_first_order_example(_NEGATIVE_ZEROS, 1))
@example(_first_order_example(_OVERFLOW, 1))
@settings(max_examples=400, deadline=None)
def test_float_column_passes_match_the_per_site_kernels(case):
    data, U, k, alpha, P, tol, (dressing_data, ws, window) = case
    if U.mode != FLOAT or dressing_data.mode != FLOAT:
        # a potential does not fit an instance of the other mode: the door of a
        # state and the commutator refuse it
        if window is not None:
            with pytest.raises(ModeError):
                HierarchyState(dressing_data, U, window,
                               Dressing(len(ws), ws, dressing_data.conventions()))
        with pytest.raises(ModeError):
            commutator_with_l(_hat(U, ws), dressing_data, U)
    if U.mode != FLOAT:  # and every float pass refuses a rational potential
        for call in (partial(flow_field, data, U, k, alpha, tol=tol),
                     partial(resolvent_direct, data, U, alpha, k),
                     partial(commutator_with_l, P, data, U)):
            with pytest.raises(ModeError):
                call()
        return
    if dressing_data.mode != FLOAT:
        with pytest.raises(ModeError):
            solve_dressing(dressing_data, U, len(ws))
    else:
        _same_outcome(*_defects(data, U, ws, window))
        for depth in (k, len(ws)):
            solved = _outcome(solve_dressing, data, U, depth)
            _same_outcome(solved, _outcome(ref_solve_dressing_floats, data, U, depth))
        if isinstance(solved, Dressing):  # and the defect of the solved dressing
            _same_outcome(*_defects(data, U, solved.ws, window))
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
