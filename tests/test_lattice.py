"""Lattice-calculus tests: shifts, differences, Leibniz law, inner product."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from aknsd.errors import SupportError
from aknsd.lattice import (
    LatticeFn,
    delta_apply,
    inner_product,
    shift_apply,
)
from aknsd.matrices import SmallMatrix
from helpers import RAT, mat, rand_matrix


def impulse(lo, hi, site, value):
    zero = SmallMatrix.zero(value.m, value.mode)
    return LatticeFn.from_values(
        lo, [value if n == site else zero for n in range(lo, hi + 1)]
    )


def rand_compact(rng, lo, hi, m, margin=2):
    zero = SmallMatrix.zero(m, RAT)
    vals = []
    for n in range(lo, hi + 1):
        inside = lo + margin <= n <= hi - margin
        vals.append(rand_matrix(rng, m) if inside and rng.random() < 0.7 else zero)
    return LatticeFn.from_values(lo, vals)


def test_shift_of_constant():
    v = mat([[1, 2], [3, 4]])
    c = impulse(-5, 5, 0, v).constant(v)
    s = shift_apply(c, 1)
    assert all(s.at(n) == c.at(n) for n in s.sites())


def test_shift_moves_impulse():
    f = impulse(-5, 5, 0, mat([[1, 0], [0, 0]]))
    g = shift_apply(f, 1)
    assert not g.at(-1).is_zero()
    assert all(g.at(n).is_zero() for n in g.sites() if n != -1)


def test_shift_inverse_composition():
    rng = random.Random(0)
    f = rand_compact(rng, -5, 5, 2)
    g = shift_apply(shift_apply(f, 1), -1)
    assert all(g.at(n) == f.at(n) for n in g.sites())
    assert (g.lo, g.hi) == (f.lo + 1, f.hi - 1)


def test_delta_of_constant_is_zero():
    v = mat([[0, 5], [7, 0]])
    c = impulse(-5, 5, 0, v).constant(v)
    d = delta_apply(c)
    assert all(d.at(n).is_zero() for n in d.sites())


def test_delta_of_squares():
    f = LatticeFn.from_values(-6, [mat([[n * n]]) for n in range(-6, 7)])
    d = delta_apply(f)
    for n in d.sites():
        assert d.at(n) == mat([[2 * n + 1]])


def test_deformed_delta_of_linear_profile():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(2)):
        x0 = Fraction(1, 3)
        f = LatticeFn.from_values(
            -4, [mat([[x0 + n * eps]]) for n in range(-4, 5)], step=eps
        )
        d = delta_apply(f)
        for n in d.sites():
            assert d.at(n) == mat([[1]])


def test_eps_one_matches_plain_delta():
    rng = random.Random(1)
    vals = [rand_matrix(rng, 2) for _ in range(9)]
    plain = LatticeFn.from_values(-4, vals)
    stepped = LatticeFn.from_values(-4, vals, step=Fraction(1))
    a = delta_apply(plain)
    b = delta_apply(stepped)
    assert all(a.at(n) == b.at(n) for n in a.sites())


def test_leibniz_law():
    rng = random.Random(2)
    f = rand_compact(rng, -6, 6, 2)
    g = rand_compact(rng, -6, 6, 2)
    prod = f.zip_with(g, lambda a, b: a @ b)
    lhs = delta_apply(prod)
    rhs1 = shift_apply(f, 1).zip_with(delta_apply(g), lambda a, b: a @ b) + \
        delta_apply(f).zip_with(g, lambda a, b: a @ b)
    rhs2 = delta_apply(f).zip_with(shift_apply(g, 1), lambda a, b: a @ b) + \
        f.zip_with(delta_apply(g), lambda a, b: a @ b)
    for n in rhs1.sites():
        assert lhs.at(n) == rhs1.at(n) == rhs2.at(n)


def test_inner_product_single_site():
    e11 = SmallMatrix.basis_projector(2, 1, RAT)
    f = impulse(-3, 3, 0, e11)
    assert inner_product(f, f) == 1


def test_inner_product_symmetric_scalar():
    rng = random.Random(3)
    f = rand_compact(rng, -4, 4, 1)
    g = rand_compact(rng, -4, 4, 1)
    assert inner_product(f, g) == inner_product(g, f)


def test_inner_product_needs_compact_support():
    ident = SmallMatrix.identity(2, RAT)
    c = impulse(-2, 2, 0, ident).constant(ident)
    with pytest.raises(SupportError):
        inner_product(c, c)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_delta_adjoint_property(seed):
    # <Delta f, g> == <f, Delta* g> for compactly supported pairs
    rng = random.Random(seed)
    f = rand_compact(rng, -7, 7, 2, margin=3)
    g = rand_compact(rng, -7, 7, 2, margin=3)
    lhs = inner_product(delta_apply(f, "forward"), g)
    rhs = inner_product(f, delta_apply(g, "dual"))
    assert lhs == rhs

