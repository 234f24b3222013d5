"""The exact matrix kernel against a plain-``Fraction`` reference.

A rational ``SmallMatrix`` keeps integer numerators over one common
denominator; every operation must give, entry for entry, what row lists of
``Fraction``s give, and every result must stay canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aknsd import scalars
from aknsd.errors import DimensionError, ModeError, SingularError
from aknsd.matrices import SmallMatrix
from helpers import RAT, assert_canonical, ref_inverse, ref_matmul

small = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))


def entries(m):
    return st.lists(st.lists(small, min_size=m, max_size=m), min_size=m, max_size=m)


@st.composite
def operands(draw, count):
    m = draw(st.integers(1, 4))
    return m, [draw(entries(m)) for _ in range(count)]


def assert_matches(mat, ref):
    """``mat`` holds ``ref`` exactly, reads it back as Fractions, and is canonical."""
    m = len(ref)
    assert mat.m == m and mat.mode == RAT
    assert mat.rows == tuple(tuple(row) for row in ref)
    for i in range(m):
        for j in range(m):
            got = mat.get(i + 1, j + 1)
            assert type(got) is Fraction and got == ref[i][j]
    assert_canonical(mat)
    assert mat.is_zero() == all(x == 0 for row in ref for x in row)
    biggest = max(abs(x) for row in ref for x in row)
    assert type(mat.max_abs()) is Fraction and mat.max_abs() == biggest


@settings(max_examples=150, deadline=None)
@given(operands(2), small)
def test_ring_operations_match_the_fraction_reference(ops, s):
    m, (a, b) = ops
    ma, mb = SmallMatrix(m, RAT, a), SmallMatrix(m, RAT, b)
    assert_matches(ma, a)
    assert_matches(ma + mb, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)])
    assert_matches(ma - mb, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)])
    assert_matches(-ma, [[-x for x in r] for r in a])
    assert_matches(ma.scale(s), [[s * x for x in r] for r in a])
    assert_matches(ma @ mb, ref_matmul(a, b))
    assert_matches(ma.transpose(), [list(c) for c in zip(*a)])
    assert_matches(ma.diagonal_part(),
                   [[x if i == j else 0 for j, x in enumerate(r)] for i, r in enumerate(a)])
    assert ma.trace() == sum((a[i][i] for i in range(m)), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(operands(1))
def test_inverse_matches_the_fraction_reference(ops):
    m, (a,) = ops
    want = ref_inverse(a)
    mat = SmallMatrix(m, RAT, a)
    if want is None:
        with pytest.raises(SingularError):
            mat.inverse()
    else:
        assert_matches(mat.inverse(), want)


@settings(max_examples=100, deadline=None)
@given(operands(2))
def test_equal_matrices_have_equal_fields_and_hashes(ops):
    m, (a, b) = ops
    ma, mb = SmallMatrix(m, RAT, a), SmallMatrix(m, RAT, b)
    roundabout = ((ma + mb) - mb).scale(6).scale(Fraction(1, 6))
    assert roundabout == ma
    assert hash(roundabout) == hash(ma)
    assert (ma == mb) == (a == b)
    assert ma.scale(Fraction(1, 2)) != ma or ma.is_zero()
    assert SmallMatrix(m, RAT, [[int(x) if x.denominator == 1 else x for x in r]
                                for r in a]) == ma


doubles = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.lists(doubles, min_size=m, max_size=m), min_size=m, max_size=m),
    min_size=2, max_size=2)))
def test_float_product_and_difference_are_the_generator_forms(ops):
    # bit for bit, signed zeros and infinities included: the same sums in the
    # same order as the plain generator expressions
    a, b = ops
    got_mul = SmallMatrix(len(a), "float", a) @ SmallMatrix(len(b), "float", b)
    got_sub = SmallMatrix(len(a), "float", a) - SmallMatrix(len(b), "float", b)
    want_mul = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                     for row in a)
    want_sub = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    assert repr(got_mul.rows) == repr(want_mul)
    assert repr(got_sub.rows) == repr(want_sub)


finite = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False, width=16))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(finite, min_size=m, max_size=m), min_size=m, max_size=m),
    st.lists(finite, min_size=m, max_size=m))))
def test_diagonal_scaling_is_the_product_with_the_diagonal(case):
    # bit for bit for finite entries, signed zeros included
    rows, d = case
    c = SmallMatrix(len(rows), "float", rows)
    a = SmallMatrix.diag(d, "float")
    assert repr(c.mul_diag(a, left=True).rows) == repr((a @ c).rows)
    assert repr(c.mul_diag(a, left=False).rows) == repr((c @ a).rows)


@settings(max_examples=100, deadline=None)
@given(operands(1), st.lists(small, min_size=4, max_size=4))
def test_exact_diagonal_scaling_and_terms(ops, d):
    m, (rows,) = ops
    c, a = SmallMatrix(m, RAT, rows), SmallMatrix.diag(d[:m], RAT)
    for left, want in ((True, a @ c), (False, c @ a)):
        got = c.mul_diag(a, left=left)
        assert got == want
        assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(operands(1))
def test_lowest_terms_entries_round_trip_through_numerators(ops):
    m, (a,) = ops
    built = SmallMatrix.from_lowest_terms(
        [[(x.numerator, x.denominator) for x in row] for row in a])
    assert_matches(built, a)
    assert built == SmallMatrix(m, RAT, a)
    num, den = built.numerators()
    assert [[Fraction(x, den) for x in row] for row in num] == a


def test_singular_matrix_raises():
    with pytest.raises(SingularError):
        SmallMatrix.from_rows([[1, 2], [2, 4]], RAT).inverse()
    with pytest.raises(SingularError):
        SmallMatrix.zero(3, RAT).inverse()


def test_mixed_modes_raise():
    a = SmallMatrix.identity(2, RAT)
    b = SmallMatrix.identity(2, "float")
    for op in (lambda: a + b, lambda: a - b, lambda: a @ b, lambda: b @ a, b.numerators):
        with pytest.raises(ModeError):
            op()
    assert a != b


def test_rational_matrix_refuses_a_float_entry():
    with pytest.raises(ModeError):
        SmallMatrix(2, RAT, ((0.5, 0.0), (0.0, 0.0)))
    with pytest.raises(ModeError):
        SmallMatrix(2, RAT, ((Fraction(1, 2), 0), (0, 0.0)))


def test_shape_is_checked():
    with pytest.raises(DimensionError):
        SmallMatrix(2, RAT, ((1, 0), (0,)))
    with pytest.raises(DimensionError):
        SmallMatrix.identity(2, RAT) @ SmallMatrix.identity(3, RAT)


@pytest.mark.parametrize("pos", range(4))
def test_max_abs_and_max_of_keep_a_nan(pos):
    # a nan compares false with everything: max() and a `v > best` scan drop it
    # unless it comes first, and a check on the maximum would then pass
    rows = [[1.0, -2.0], [0.5, -0.0]]
    rows[pos // 2][pos % 2] = float("nan")
    v = SmallMatrix(2, "float", tuple(map(tuple, rows))).max_abs()
    assert v != v
    values = [1.0, 2.0, 0.5]
    values.insert(pos % 3, float("nan"))
    assert (w := scalars.max_of(values, scalars.FLOAT)) != w
    assert scalars.max_of([-0.0, 0.5, 2.0, 1.0], scalars.FLOAT) == 2.0
    assert scalars.max_of([], RAT) == 0 and isinstance(scalars.max_of([], RAT), Fraction)
