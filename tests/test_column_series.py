"""The lattice of series on entry columns against the per-site series operations,
and the sparse exact kernels against the dense ones.

``columns._ColumnSeries`` holds a lattice of series whose sites share one
band as one list of entry columns per degree, and no tail.  Each of its
operations must give, at every site, what the ``MatSeries`` operation gives
there: the same band and validity, the same rationals, and for finite
entries the same doubles down to the sign of a zero; a refusal is the same
error with the same message.  The draws force entry
columns that are zero at every site, so the exact kit's sparse path (a term
with an all-zero factor column dropped, an all-zero operand giving the
other) runs on every kind of operand.
"""

from fractions import Fraction
from math import lcm
from operator import add, floordiv, mul, sub
import random

from hypothesis import example, given, settings, strategies as st

from aknsd import scalars
from aknsd.columns import _ColumnSeries, _kit, _products
from aknsd.errors import AknsdError
from aknsd.hierarchy import AknsData
from aknsd.lattice import LatticeFn, shift_apply, site_max
from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries, series_mul, series_project

RAT, FLOAT = scalars.RATIONAL, scalars.FLOAT

# finite entries only: a zero factor does not cancel an inf term in float mode
_ENTRIES = {
    RAT: (1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
    FLOAT: (1.0, -1.0, 0.5, -2.25, 0.1, 3.0, -1e-3, 1 / 3),
}
_ZEROS = {RAT: (0,), FLOAT: (0.0, -0.0)}


def _outcome(fn):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn()
    except AknsdError as exc:
        return type(exc).__name__, str(exc)


def _series_repr(s):
    return (s.m, s.mode, s.lo, s.hi, s.valid_lo, [repr(c.rows) for c in s.coeffs])


def _lattice_repr(f):
    """Sites, step and every value by repr, so a float's signed zero counts."""
    return (f.lo, f.hi, f.step, f.mode, [_series_repr(s) for s in f.values])


def _same(got, want):
    """A column result against a per-site one; refusals by type and message."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert _lattice_repr(got.lattice()) == _lattice_repr(want)


class _Lattices:
    """Lattices of series of one dimension and mode whose sites share one band.

    Every entry in ``dead`` is zero at every site and degree, and a degree in
    ``hollow`` is the zero matrix at every site; the other entries are drawn
    from a seeded generator, zeros included, so deep draws fit the buffer.
    """

    def __init__(self, draw, m, mode):
        self.draw, self.m, self.mode = draw, m, mode
        self.rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def _matrix(self, dead):
        pool = _ENTRIES[self.mode] + _ZEROS[self.mode]
        m = self.m
        return SmallMatrix(m, self.mode, tuple(
            tuple(self.rng.choice(_ZEROS[self.mode] if r * m + k in dead else pool)
                  for k in range(m)) for r in range(m)))

    def series(self, lo, hi, valid_lo, dead=frozenset(), hollow=frozenset()):
        zero = set(range(self.m * self.m))
        return MatSeries(self.m, self.mode, lo, hi, tuple(
            self._matrix(zero if d in hollow else dead) for d in range(lo, hi + 1)), valid_lo)

    def lattice(self, n_lo, n_hi):
        draw = self.draw
        lo = draw(st.integers(-3, 1))
        hi = lo + draw(st.integers(0, 3))
        valid_lo = draw(st.none() | st.integers(lo, hi))
        dead = draw(st.sets(st.integers(0, self.m * self.m - 1)))
        hollow = draw(st.sets(st.integers(lo, hi)))
        values = tuple(self.series(lo, hi, valid_lo, dead, hollow) for _ in range(n_lo, n_hi + 1))
        zero = MatSeries.zero(self.m, self.mode)
        return LatticeFn(n_lo, n_hi, values, zero, zero, None, self.mode)


@st.composite
def column_case(draw):
    """Two lattices of series on overlapping sites, m = 2 or 3, in both modes."""
    m = draw(st.integers(2, 3))
    mode = draw(st.sampled_from([RAT, FLOAT]))
    data = AknsData(m, tuple(scalars.as_scalar(x, mode) for x in (1, -1, 2)[:m]), mode)
    rnd = _Lattices(draw, m, mode)
    n_lo = draw(st.integers(-2, 0))
    a = rnd.lattice(n_lo, n_lo + draw(st.integers(0, 3)))
    b_lo = n_lo + draw(st.integers(-1, 1))
    b = rnd.lattice(b_lo, max(b_lo, a.lo) + draw(st.integers(0, 3)))
    return data, a, b, rnd.series(*sorted(draw(st.integers(-2, 1)) for _ in range(2)), None)


def _float_case():
    """Two fully known float lattices on bands of four degrees: degree -3 of their
    product sums four pairs, and the order of that sum shows in the last bits."""
    rng = random.Random(7)
    data = AknsData(2, (1.0, -1.0), FLOAT)
    zero = MatSeries.zero(2, FLOAT)

    def lattice():
        values = tuple(MatSeries(2, FLOAT, -3, 0, tuple(
            SmallMatrix(2, FLOAT, [[rng.choice(_ENTRIES[FLOAT]) for _ in range(2)]
                                   for _ in range(2)]) for _ in range(4)), None)
            for _ in range(3))
        return LatticeFn(0, 2, values, zero, zero, None, FLOAT)

    return data, lattice(), lattice(), zero


@given(column_case(), st.integers(0, 2), st.integers(-2, 2))
@example(_float_case(), 0, 0)
@settings(max_examples=300, deadline=None)
def test_every_column_operation_is_the_per_site_series_operation(case, k, j):
    data, a, b, s = case
    kit = _kit(data)
    x, y = _ColumnSeries.read(kit, a), _ColumnSeries.read(kit, b)
    _same(x, a)
    _same(_outcome(lambda: x * y), _outcome(lambda: a.zip_with(b, series_mul)))
    _same(_outcome(lambda: x + y), _outcome(lambda: a + b))
    _same(_outcome(lambda: x - y), _outcome(lambda: a - b))
    for part in ("plus", "minus"):
        _same(_outcome(lambda: x.project(part, k)), _outcome(lambda: a.map(
            lambda v: series_project(v.shift_degree(k), part), map_tails=False)))
    factor = scalars.as_scalar(Fraction(-3, 2) if k == 0 else Fraction(1, 10), data.mode)
    _same(x.scale(factor), a.map(lambda v: v.scale(factor)))
    _same(x.constant(s), a.constant(s))
    _same(_outcome(lambda: x.restrict(a.lo + j, a.hi)),
          _outcome(lambda: a.restrict(a.lo + j, a.hi)))
    _same(_outcome(lambda: x.shift(j)), _outcome(lambda: shift_apply(a, j)))
    assert repr(x.max_abs()) == repr(site_max(a))
    for d in range(x.lo - 1, x.hi + 2):
        want = _outcome(lambda: scalars.max_of((v.get(d).max_abs() for v in a.values), a.mode))
        assert repr(_outcome(lambda: x.magnitude(d))) == repr(want)


# -- the sparse exact kernels -----------------------------------------------------------


def _dense_combine(x, y, op):
    """The exact ``combine`` on every entry: each operand over the per-site lcm."""
    den = list(map(lcm, x[-1], y[-1]))
    fx, fy = list(map(floordiv, den, x[-1])), list(map(floordiv, den, y[-1]))
    return [*(list(map(op, map(mul, p, fx), map(mul, q, fy)))
              for p, q in zip(x[:-1], y[:-1])), den]


def _dense_products(x, y, m):
    return [*_products(x[:-1], y[:-1], m, False), list(map(mul, x[-1], y[-1]))]


@st.composite
def exact_columns(draw):
    """Rational entry columns of two coefficients, some all zero, on 1..4 sites each;
    the products are m x J times J x m, J = m or 1."""
    m = draw(st.integers(2, 3))
    width = draw(st.sampled_from([m, 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def columns(count, n):
        dead = draw(st.sets(st.integers(0, count - 1)))
        return [*([0] * n if c in dead else [rng.choice((0, 0, 1, -2, 5, -7)) for _ in range(n)]
                  for c in range(count)), [rng.choice((1, 2, 3, 6, 10)) for _ in range(n)]]

    x = columns(m * width, draw(st.integers(1, 4)))
    y = columns(width * m, draw(st.integers(1, 4)))
    z = columns(m * m, draw(st.integers(1, 4)))
    w = columns(m * m, draw(st.integers(1, 4)))
    return AknsData(m, (Fraction(1), Fraction(-1), Fraction(2))[:m]), x, y, z, w


@given(exact_columns())
@settings(max_examples=300, deadline=None)
def test_sparse_exact_kernels_equal_the_dense_ones_after_a_canonical_build(case):
    data, x, y, z, w = case
    kit = _kit(data)
    assert kit.build(kit.products(x, y)) == kit.build(_dense_products(x, y, data.m))
    for p, q in ((z, w), (w, z), (z, kit.zero(len(w[0]))), (kit.zero(len(z[0])), w)):
        for op in (add, sub):
            assert kit.build(kit.combine(p, q, op)) == kit.build(_dense_combine(p, q, op))


@given(exact_columns())
@settings(max_examples=200, deadline=None)
def test_canonical_columns_are_the_built_ones(case):
    # each site over the gcd of its denominator and numerators: the columns a
    # build and a read give, with no matrix formed; a double has one form
    data, x, y, z, w = case
    kit = _kit(data)
    for c in (z, w, kit.products(x, y), kit.combine(z, w, add), kit.zero(len(z[0]))):
        assert [list(v) for v in kit.canonical(c)] == [list(v) for v in kit.read(kit.build(c))]
    floats = [[0.5, -0.0, 3.0]] * (data.m * data.m)
    assert _kit(AknsData(data.m, (1.0, -1.0, 2.0)[:data.m], FLOAT)).canonical(floats) is floats
