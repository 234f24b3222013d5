"""Lattice functions on a finite window, and the shift/difference calculus.

A :class:`LatticeFn` stores one value (a :class:`SmallMatrix` or a
:class:`MatSeries`) per site of the closed range ``[lo, hi]`` and declares
constant tails for evaluation outside it.  The stored range doubles as the
*claimable* region: every operation that references shifted sites returns a
function on a smaller range, so a value at site ``n`` of any derived object
only ever depends on stored data.  Edge effects therefore can never
masquerade as identity violations -- assertions simply have no site to bind
to once the shift budget (the halo built into the window) is spent.

Every value and both tails of a lattice share one type (all matrices or all
series), one dimension ``m`` and the lattice's ``mode``; a lattice that
breaks this is refused when it is built, so no operation on its values
checks them again.

The positive step ``eps`` deforms the difference operator; ``eps == 1``
recovers the plain forward difference bit for bit, because scaling by
``1 / eps == 1`` changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable

from . import scalars
from .errors import DimensionError, ModeError, SupportError
from .matrices import SmallMatrix


@dataclass(frozen=True)
class Window:
    """Region of interest plus stored padding: sites [n_min-halo, n_max+halo]."""

    n_min: int
    n_max: int
    halo: int

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise DimensionError("window needs n_min <= n_max")
        if self.halo < 0:
            raise DimensionError("halo must be non-negative")

    @property
    def stored_lo(self) -> int:
        return self.n_min - self.halo

    @property
    def stored_hi(self) -> int:
        return self.n_max + self.halo


@dataclass(frozen=True)
class LatticeFn:
    """Function of the lattice coordinate on [lo, hi] with constant tails."""

    lo: int
    hi: int
    values: tuple
    left_tail: object
    right_tail: object
    step: object = None  # positive Scalar; None means 1 in the ambient mode
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        if self.lo > self.hi:
            raise DimensionError(f"empty lattice range [{self.lo}, {self.hi}]")
        if len(self.values) != self.hi - self.lo + 1:
            raise DimensionError("value count does not match range")
        if self.step is not None and not 0 < self.step < inf:  # a nan fails it too
            raise DimensionError("step must be positive and finite")
        kind, m = type(self.values[0]), self.values[0].m
        for v in (*self.values, self.left_tail, self.right_tail):
            if type(v) is not kind:
                raise DimensionError(f"a {type(v).__name__} in a lattice of {kind.__name__} values")
            if v.m != m:
                raise DimensionError(f"lattice values of dimensions {m} and {v.m}")
            if v.mode != self.mode:
                raise ModeError(f"a {v.mode} value in a {self.mode} lattice")

    @property
    def m(self) -> int:
        """The dimension of every value and of both tails."""
        return self.left_tail.m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_values(lo: int, values, *, step=None) -> "LatticeFn":
        """Matrix values from site ``lo`` on, with zero tails, in their mode."""
        vals = tuple(values)
        if not vals:
            raise DimensionError("need at least one site")
        zero = SmallMatrix.zero(vals[0].m, vals[0].mode)
        return LatticeFn(lo, lo + len(vals) - 1, vals, zero, zero, step, zero.mode)

    def constant(self, value) -> "LatticeFn":
        """``value`` at every site of this range and in both tails, on this step."""
        return LatticeFn(self.lo, self.hi, (value,) * (self.hi - self.lo + 1),
                         value, value, self.step, self.mode)

    # -- evaluation ----------------------------------------------------------

    def at(self, n: int):
        """Total evaluation: stored value inside, tail constant outside."""
        if n < self.lo:
            return self.left_tail
        if n > self.hi:
            return self.right_tail
        return self.values[n - self.lo]

    def sites(self):
        return range(self.lo, self.hi + 1)

    def eps(self):
        return self.step if self.step is not None else scalars.one(self.mode)

    def _compat(self, other: "LatticeFn") -> None:
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch: {self.mode} vs {other.mode}")
        if self.m != other.m:
            raise DimensionError(f"dimension mismatch: {self.m} vs {other.m}")
        if self.eps() != other.eps():
            raise DimensionError("lattice step mismatch between operands")

    # -- functional helpers ----------------------------------------------------

    def map(self, fn: Callable, *, map_tails: bool = True) -> "LatticeFn":
        lt = fn(self.left_tail) if map_tails else self.left_tail
        rt = fn(self.right_tail) if map_tails else self.right_tail
        return LatticeFn(self.lo, self.hi, tuple(fn(v) for v in self.values),
                         lt, rt, self.step, self.mode)

    def restrict(self, lo: int, hi: int) -> "LatticeFn":
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        if lo > hi:
            raise DimensionError("restriction leaves no claimable site")
        return LatticeFn(lo, hi, self.values[lo - self.lo: hi - self.lo + 1],
                         self.left_tail, self.right_tail, self.step, self.mode)

    def zip_with(self, other: "LatticeFn", fn: Callable) -> "LatticeFn":
        self._compat(other)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise DimensionError("operand ranges do not overlap")
        vals = tuple(fn(self.at(n), other.at(n)) for n in range(lo, hi + 1))
        return LatticeFn(lo, hi, vals, fn(self.left_tail, other.left_tail),
                         fn(self.right_tail, other.right_tail), self.step, self.mode)

    def __add__(self, other: "LatticeFn") -> "LatticeFn":
        return self.zip_with(other, lambda a, b: a + b)

    def __sub__(self, other: "LatticeFn") -> "LatticeFn":
        return self.zip_with(other, lambda a, b: a - b)


# -- shift / difference operators ------------------------------------------------


def shift_apply(f: LatticeFn, j: int) -> LatticeFn:
    """The shift (in operator form Lambda**j): result(n) = f(n + j).

    The claimable range shrinks by |j| on the side that would need data
    beyond storage; tails are unchanged.
    """
    if j == 0:
        return f
    lo = f.lo if j > 0 else f.lo - j
    hi = f.hi - j if j > 0 else f.hi
    if lo > hi:
        raise DimensionError("shift exceeds stored range")
    vals = tuple(f.values[n + j - f.lo] for n in range(lo, hi + 1))
    return LatticeFn(lo, hi, vals, f.left_tail, f.right_tail, f.step, f.mode)


def inverse_step(f: LatticeFn):
    """1 / eps of a lattice, in its mode: the one scaling of every difference.

    The unit step gives 1, and scaling by 1 changes no value (x * 1.0 is x in
    IEEE, down to a zero's sign).
    """
    return scalars.one(f.mode) / f.eps()


def delta_apply(f: LatticeFn, kind: str = "forward") -> LatticeFn:
    """Deformed forward difference (f(n+1)-f(n))/eps or its dual (f(n-1)-f(n))/eps.

    The difference is scaled by ``1 / eps``; at step 1 that is 1, and the
    result is the plain difference bit for bit.
    """
    if kind == "forward":
        shifted = shift_apply(f, 1)
    elif kind == "dual":
        shifted = shift_apply(f, -1)
    else:
        raise ValueError(f"unknown difference kind {kind!r}")
    inv = inverse_step(f)
    return shifted.zip_with(f.restrict(shifted.lo, shifted.hi), lambda a, b: (a - b).scale(inv))


def site_max(f: LatticeFn, norm=lambda v: v.max_abs(), sites=None):
    """Largest ``norm(f(n))`` over ``sites`` (default: every claimable site).

    A site outside ``[f.lo, f.hi]`` is refused: its value would be a tail, not
    stored data.
    """
    if sites is None:
        sites = f.sites()
    elif not all(f.lo <= n <= f.hi for n in sites):
        raise DimensionError(f"a claim on a site outside the stored range [{f.lo}, {f.hi}]")
    return scalars.max_of((norm(f.at(n)) for n in sites), f.mode)


def inner_product(f: LatticeFn, g: LatticeFn):
    """Sum of tr(f(n) g(n)) over the lattice; needs compact product support."""
    f._compat(g)
    lp = f.left_tail @ g.left_tail
    rp = f.right_tail @ g.right_tail
    if not lp.is_zero() or not rp.is_zero():
        raise SupportError("product of tails is nonzero: support is not compact")
    lo = min(f.lo, g.lo)
    hi = max(f.hi, g.hi)
    total = scalars.zero(f.mode)
    for n in range(lo, hi + 1):
        total += (f.at(n) @ g.at(n)).trace()
    return total

