"""Algebra-core tests: scalars, matrices, truncated Laurent series."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.errors import DimensionError, ModeError, SingularError, ValidityError
from aknsd.matrices import SmallMatrix
from aknsd.series import (
    MatSeries,
    series_equal,
    series_inverse,
    series_mul,
    series_project,
)
from helpers import (
    RAT,
    assert_canonical,
    completion,
    extended_band_product,
    mat,
    rand_matrix,
    rand_series,
    ref_inverse,
    ref_matmul,
)


# -- scalars ----------------------------------------------------------------


def test_scalar_roundtrip_rational():
    x = Fraction(-7, 12)
    assert scalars.parse_scalar(scalars.format_scalar(x), RAT) == x


def test_scalar_roundtrip_float():
    x = 0.1 + 0.2
    assert scalars.parse_scalar(scalars.format_scalar(x), "float") == x


def test_scalar_mode_mixing_rejected():
    with pytest.raises(ModeError):
        scalars.join_modes(RAT, "float")
    with pytest.raises(ModeError):
        scalars.as_scalar(0.5, RAT)


# -- matrices ----------------------------------------------------------------


def test_matrix_mul_and_identity():
    a = mat([[1, 2], [3, 4]])
    i = SmallMatrix.identity(2, RAT)
    assert (a @ i) == a
    assert (i @ a) == a


def test_matrix_inverse_exact():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        try:
            inv = a.inverse()
        except SingularError:
            continue
        assert (a @ inv) == SmallMatrix.identity(3, RAT)
        assert (inv @ a) == SmallMatrix.identity(3, RAT)


def test_matrix_singular_raises():
    with pytest.raises(SingularError):
        mat([[1, 2], [2, 4]]).inverse()


def test_matrix_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat([[1, 2], [3, 4]]) @ SmallMatrix.identity(3, RAT)


def test_basis_projector_products():
    # E_a E_b = delta_ab E_b, as plain matrices and as degree-0 series
    m = 3
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            ea = SmallMatrix.basis_projector(m, a, RAT)
            eb = SmallMatrix.basis_projector(m, b, RAT)
            expect = eb if a == b else SmallMatrix.zero(m, RAT)
            assert (ea @ eb) == expect
            prod = series_mul(MatSeries.constant(ea), MatSeries.constant(eb))
            assert series_equal(prod, MatSeries.constant(expect))


# -- series arithmetic ----------------------------------------------------------


def test_additive_inverse():
    rng = random.Random(1)
    a = rand_series(rng, 2, -3, 1)
    assert (a + (-a)).is_zero()


def test_add_band_union():
    i = SmallMatrix.identity(2, RAT)
    w = mat([[0, 1], [1, 0]])
    s = MatSeries.monomial(i, 1) + MatSeries.monomial(w, -1)
    assert (s.lo, s.hi) == (-1, 1)
    assert s.get(1) == i
    assert s.get(0).is_zero()
    assert s.get(-1) == w


def test_mul_nilpotent_identity():
    i = SmallMatrix.identity(2, RAT)
    w = mat([[0, 1], [1, 0]])
    a = MatSeries.from_coeffs({0: i, -1: w}, 2, RAT)
    b = MatSeries.from_coeffs({0: i, -1: -w}, 2, RAT)
    prod = series_mul(a, b)
    expect = MatSeries.from_coeffs({0: i, -2: -(w @ w)}, 2, RAT, lo=-2, hi=0)
    assert series_equal(prod, expect)


def test_mul_validity_rule():
    rng = random.Random(2)
    a = rand_series(rng, 2, -4, 0, valid_lo=-4)
    b = rand_series(rng, 2, -4, 1, valid_lo=-4)
    prod = series_mul(a, b)
    assert prod.valid_lo == -3


def test_mul_validity_is_sound_under_band_extension():
    # coefficients at or above the declared valid_lo must not depend on what
    # sits below the inputs' validity bands
    rng = random.Random(3)
    for _ in range(8):
        a = rand_series(rng, 2, rng.randint(-5, -2), rng.randint(0, 2), valid_lo=None)
        b = rand_series(rng, 2, rng.randint(-5, -2), rng.randint(0, 2), valid_lo=None)
        a = MatSeries(a.m, a.mode, a.lo, a.hi, a.coeffs, a.lo)
        b = MatSeries(b.m, b.mode, b.lo, b.hi, b.coeffs, b.lo)
        prod = series_mul(a, b)
        wide = extended_band_product(a, b, extra=4)
        for d in range(prod.valid_lo, prod.hi + 1):
            assert prod.get(d) == wide.get(d)


def test_mode_mismatch_rejected():
    a = MatSeries.constant(SmallMatrix.identity(2, RAT))
    b = MatSeries.constant(SmallMatrix.identity(2, "float"))
    with pytest.raises(ModeError):
        series_mul(a, b)


# -- ring axioms (property-based) --------------------------------------------------


@st.composite
def small_series(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    lo = draw(st.integers(-3, 0))
    hi = draw(st.integers(0, 2))
    return rand_series(rng, 2, lo, hi)


@given(small_series(), small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_mul_associative(a, b, c):
    left = series_mul(series_mul(a, b), c)
    right = series_mul(a, series_mul(b, c))
    assert series_equal(left, right)


@given(small_series(), small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_mul_distributes(a, b, c):
    left = series_mul(a, b + c)
    right = series_mul(a, b) + series_mul(a, c)
    assert series_equal(left, right)


# -- validity-band soundness (property-based) ----------------------------------------

# each operation takes two operands and a small integer (unary ones ignore b),
# with the refusals it may answer: a sum or product that would know no degree
# is refused as invalid
_BAND_OPS = {
    "add": (lambda a, b, k: a + b, ValidityError),
    "sub": (lambda a, b, k: a - b, ValidityError),
    "mul": (lambda a, b, k: series_mul(a, b), ValidityError),
    "inverse": (lambda a, b, k: series_inverse(a, k), (ValidityError, SingularError)),
    "minus": (lambda a, b, k: series_project(a, "minus"), ValidityError),
    "shift_degree": (lambda a, b, k: a.shift_degree(k - 2), ()),
    "trim_top": (lambda a, b, k: a.trim_top(), ()),
}


@st.composite
def banded_series(draw):
    """A fully known or truncated series; its top may be zero or unit-triangular."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    lo = draw(st.integers(-4, 0))
    hi = draw(st.integers(lo, 2))
    valid_lo = draw(st.none() | st.integers(lo, hi + 1))
    s = rand_series(rng, 2, lo, hi, valid_lo=valid_lo)
    coeffs = list(s.coeffs)
    top = draw(st.sampled_from(["random", "zero", "unit"]))
    if top == "zero":
        for d in range(min(draw(st.integers(1, 2)), hi - lo + 1)):
            coeffs[-1 - d] = SmallMatrix.zero(2, RAT)
    elif top == "unit":
        coeffs[-1] = mat([[1, rand_matrix(rng, 2).get(1, 2)], [0, 1]])
    return MatSeries(s.m, s.mode, lo, hi, tuple(coeffs), valid_lo)


@pytest.mark.parametrize("name", sorted(_BAND_OPS))
@given(a=banded_series(), b=banded_series(), k=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_validity_band_is_sound(name, a, b, k):
    # every degree the result claims must not depend on what the operands
    # hold where they are unknown: recompute from completions that fill
    # those degrees with other random coefficients
    op, refusals = _BAND_OPS[name]
    try:
        got = op(a, b, k)
    except refusals:
        return  # a refusal claims nothing
    ref = op(completion(a, seed=k), completion(b, seed=k + 1), k)
    for d in range(min(got.lo, ref.lo) - 2, max(got.hi, ref.hi) + 3):
        if got.valid_at(d):
            assert got.get(d) == ref.get(d), d


# -- coefficients against a plain-Fraction reference (property-based) ----------------

entry = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=6))


def ref_zero(m):
    return [[Fraction(0)] * m for _ in range(m)]


def ref_add(a, b):
    return [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]


@st.composite
def ref_coeffs(draw, m, count):
    """``count`` coefficients as Fraction row lists, each exactly zero half the time."""
    dense = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)
    return [draw(dense) if draw(st.booleans()) else ref_zero(m) for _ in range(count)]


def series_of(lo, coeffs):
    m = len(coeffs[0])
    return MatSeries(m, RAT, lo, lo + len(coeffs) - 1,
                     tuple(SmallMatrix(m, RAT, c) for c in coeffs), None)


def assert_coefficient(got, want):
    assert got.rows == tuple(tuple(r) for r in want)
    assert_canonical(got)


@st.composite
def product_factors(draw):
    m = draw(st.integers(1, 3))
    out = []
    for _ in range(2):
        lo = draw(st.integers(-3, 0))
        out.append((lo, draw(ref_coeffs(m, draw(st.integers(1, 4))))))
    return m, out


@given(product_factors())
@settings(max_examples=100, deadline=None)
def test_mul_coefficients_match_the_cauchy_product(case):
    m, ((a_lo, a), (b_lo, b)) = case
    got = series_mul(series_of(a_lo, a), series_of(b_lo, b))
    assert (got.lo, got.hi) == (a_lo + b_lo, a_lo + b_lo + len(a) + len(b) - 2)
    for d in range(got.lo, got.hi + 1):
        pairs = [(a[i - a_lo], b[d - i - b_lo]) for i in range(a_lo, a_lo + len(a))
                 if 0 <= d - i - b_lo < len(b)]
        want = ref_zero(m)
        for x, y in pairs:
            want = ref_add(want, ref_matmul(x, y))
        assert_coefficient(got.get(d), want)
        if all(x == ref_zero(m) or y == ref_zero(m) for x, y in pairs):
            assert got.get(d) is SmallMatrix.zero(m, RAT)


def test_mul_degree_of_skipped_pairs_is_the_shared_zero():
    a = MatSeries.from_coeffs({0: mat([[1, 2], [3, 4]])}, 2, RAT, lo=-1, hi=0)
    b = MatSeries.from_coeffs({0: mat([[0, 1], [1, 0]])}, 2, RAT, lo=-1, hi=0)
    prod = series_mul(a, b)
    assert prod.get(0) == mat([[2, 1], [4, 3]])
    assert prod.get(-1) is SmallMatrix.zero(2, RAT)
    assert prod.get(-2) is SmallMatrix.zero(2, RAT)


@st.composite
def invertible_series(draw):
    m = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 1))
    coeffs = draw(ref_coeffs(m, draw(st.integers(0, 3))))
    top = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)
               .filter(lambda t: ref_inverse(t) is not None))
    return lo, coeffs + [top], draw(st.integers(0, 5))


@given(invertible_series())
@settings(max_examples=100, deadline=None)
def test_inverse_coefficients_match_the_recursion(case):
    lo, a, depth = case
    m, hi = len(a[0]), lo + len(a) - 1
    got = series_inverse(series_of(lo, a), depth)
    assert (got.lo, got.hi) == (-hi - depth, -hi)

    def below(i):  # the coefficient of a at degree hi - i
        return a[-1 - i] if i < len(a) else ref_zero(m)

    top_inv = ref_inverse(a[-1])
    out = [top_inv]
    for j in range(1, depth + 1):
        acc = ref_zero(m)
        for i in range(1, j + 1):
            acc = ref_add(acc, ref_matmul(below(i), out[j - i]))
        out.append([[-x for x in r] for r in ref_matmul(top_inv, acc)])
    for j, want in enumerate(out):
        assert_coefficient(got.get(-hi - j), want)


# -- inverse -------------------------------------------------------------------


def test_inverse_nilpotent_exact():
    n = mat([[0, 1], [0, 0]])
    a = MatSeries.from_coeffs({0: SmallMatrix.identity(2, RAT), -1: n}, 2, RAT)
    inv = series_inverse(a, 5)
    expect = MatSeries.from_coeffs({0: SmallMatrix.identity(2, RAT), -1: -n},
                                   2, RAT, lo=-5, hi=0)
    for d in range(-5, 1):
        assert inv.get(d) == expect.get(d)


def test_inverse_involution_alternates():
    # W = E_12 + E_21 squares to I, so the inverse alternates sign pattern
    w = mat([[0, 1], [1, 0]])
    a = MatSeries.from_coeffs({0: SmallMatrix.identity(2, RAT), -1: w}, 2, RAT)
    depth = 6
    inv = series_inverse(a, depth)
    prod = series_mul(a, inv)
    for d in range(-depth, 1):
        expect = SmallMatrix.identity(2, RAT) if d == 0 else SmallMatrix.zero(2, RAT)
        assert prod.get(d) == expect
    for k in range(depth + 1):
        expect = (w if k % 2 else SmallMatrix.identity(2, RAT)).scale((-1) ** k)
        assert inv.get(-k) == expect


def test_inverse_identity():
    i = MatSeries.constant(SmallMatrix.identity(3, RAT))
    inv = series_inverse(i, 4)
    assert series_equal(inv, i)


def test_inverse_two_sided():
    rng = random.Random(5)
    w1, w2 = rand_matrix(rng, 2), rand_matrix(rng, 2)
    a = MatSeries.from_coeffs(
        {0: SmallMatrix.identity(2, RAT), -1: w1, -2: w2}, 2, RAT
    )
    inv = series_inverse(a, 6)
    for prod in (series_mul(a, inv), series_mul(inv, a)):
        for d in range(-6, 1):
            expect = SmallMatrix.identity(2, RAT) if d == 0 else SmallMatrix.zero(2, RAT)
            assert prod.get(d) == expect


def test_inverse_depth_capped_by_validity():
    rng = random.Random(6)
    a = rand_series(rng, 2, -2, 0, valid_lo=-2)
    a = MatSeries.from_coeffs(
        {0: SmallMatrix.identity(2, RAT), -1: a.get(-1), -2: a.get(-2)},
        2, RAT, valid_lo=-2,
    )
    series_inverse(a, 2)
    with pytest.raises(ValidityError):
        series_inverse(a, 3)


def test_inverse_singular_top():
    a = MatSeries.constant(mat([[1, 1], [1, 1]]))
    with pytest.raises(SingularError):
        series_inverse(a, 2)


# -- projections ----------------------------------------------------------------


def test_plus_of_degree_shifted_resolvent_shape():
    rng = random.Random(8)
    r = rand_series(rng, 2, -4, 0)
    z2r = r.shift_degree(2)
    plus = series_project(z2r, "plus")
    assert (plus.lo, plus.hi) == (0, 2)
    for k in range(3):
        assert plus.get(2 - k) == r.get(-k)


def test_minus_strictly_negative():
    rng = random.Random(9)
    r = rand_series(rng, 2, -4, 0)
    zr = r.shift_degree(1)
    minus = series_project(zr, "minus")
    assert minus.hi == -1
    for i in range(2, 5):
        assert minus.get(1 - i) == r.get(-i)


def test_plus_minus_reassemble():
    rng = random.Random(10)
    a = rand_series(rng, 2, -3, 2)
    back = series_project(a, "plus") + series_project(a, "minus")
    assert series_equal(back, a)


def test_series_equal_sees_degrees_one_operand_stores():
    # a fully known operand is exactly zero below its band, so a degree that
    # only the other operand stores still enters the comparison
    i = SmallMatrix.identity(2, RAT)
    x = mat([[0, 1], [0, 0]])
    longer = MatSeries.from_coeffs({0: i, -1: x}, 2, RAT)
    assert not series_equal(longer, MatSeries.constant(i))
    assert not series_equal(MatSeries.constant(i), longer)
    # below an unknown tail nothing is compared
    truncated = MatSeries.from_coeffs({0: i, -1: x}, 2, RAT, valid_lo=0)
    assert series_equal(truncated, MatSeries.constant(i))


def test_residue_needs_validity():
    rng = random.Random(11)
    a = rand_series(rng, 2, -3, 0, valid_lo=0)
    with pytest.raises(ValidityError):
        a.get(-1)
