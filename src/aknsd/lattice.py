"""Lattice functions on a finite window, and the shift/difference calculus.

A :class:`LatticeFn` stores one value (a :class:`SmallMatrix` or a
:class:`MatSeries`) per site of the closed range ``[lo, hi]`` and declares
constant tails for evaluation outside it.  The stored range doubles as the
*claimable* region: every operation that references shifted sites returns a
function on a smaller range, so a value at site ``n`` of any derived object
only ever depends on stored data.  Edge effects therefore can never
masquerade as identity violations -- assertions simply have no site to bind
to once the shift budget (the halo built into the window) is spent.

The positive step ``eps`` deforms the difference operator; ``eps == 1``
recovers the plain forward difference bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import scalars
from .errors import DimensionError, ModeError, SchemaError, SupportError
from .matrices import SmallMatrix, matrix_from_json, matrix_to_json
from .series import MatSeries


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
        if self.step is not None and not self.step > 0:
            raise DimensionError("step must be positive")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_values(lo: int, values, *, left_tail=None, right_tail=None,
                    step=None, mode=scalars.RATIONAL) -> "LatticeFn":
        vals = tuple(values)
        if not vals:
            raise DimensionError("need at least one site")
        zero = _zero_like(vals[0])
        return LatticeFn(lo, lo + len(vals) - 1, vals,
                         left_tail if left_tail is not None else zero,
                         right_tail if right_tail is not None else zero,
                         step, mode)

    @staticmethod
    def constant(window: Window, value, *, step=None, mode=scalars.RATIONAL) -> "LatticeFn":
        n = window.stored_hi - window.stored_lo + 1
        return LatticeFn(window.stored_lo, window.stored_hi, tuple(value for _ in range(n)),
                         value, value, step, mode)

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


def _zero_like(value):
    if isinstance(value, SmallMatrix):
        return SmallMatrix.zero(value.m, value.mode)
    if isinstance(value, MatSeries):
        return MatSeries.zero(value.m, value.mode)
    raise DimensionError(f"unsupported lattice value type {type(value)!r}")


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


def delta_apply(f: LatticeFn, kind: str = "forward") -> LatticeFn:
    """Deformed forward difference (f(n+1)-f(n))/eps or its dual (f(n-1)-f(n))/eps.

    Step 1 skips the division, so it is the plain difference bit for bit.
    """
    if kind == "forward":
        shifted = shift_apply(f, 1)
    elif kind == "dual":
        shifted = shift_apply(f, -1)
    else:
        raise ValueError(f"unknown difference kind {kind!r}")
    diff = shifted.zip_with(f.restrict(shifted.lo, shifted.hi), lambda a, b: a - b)
    eps = f.eps()
    if eps != 1:
        inv = scalars.one(f.mode) / eps
        diff = diff.map(lambda v: v.scale(inv))
    return diff


def site_max(f: LatticeFn, norm=lambda v: v.max_abs(), sites=None):
    """Largest ``norm(f(n))`` over ``sites`` (default: every claimable site)."""
    sites = f.sites() if sites is None else sites
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


# -- serialization -----------------------------------------------------------------


def _value_to_json(v: SmallMatrix) -> dict:
    return {"kind": "matrix", **matrix_to_json(v)}


def _value_from_json(doc: dict) -> SmallMatrix:
    """A matrix: the one kind of lattice value a document holds."""
    if doc["kind"] != "matrix":
        raise SchemaError(f"unknown lattice value kind {doc['kind']!r}")
    return matrix_from_json(doc)


def lattice_to_json(f: LatticeFn) -> dict:
    return {
        "n_min": f.lo,
        "n_max": f.hi,
        "mode": f.mode,
        "step": scalars.format_scalar(f.eps()),
        "left_tail": _value_to_json(f.left_tail),
        "right_tail": _value_to_json(f.right_tail),
        "values": [_value_to_json(v) for v in f.values],
    }


def lattice_from_json(doc: dict) -> LatticeFn:
    mode = doc["mode"]
    step = scalars.parse_scalar(doc["step"], mode)
    return LatticeFn(
        doc["n_min"], doc["n_max"],
        tuple(_value_from_json(v) for v in doc["values"]),
        _value_from_json(doc["left_tail"]),
        _value_from_json(doc["right_tail"]),
        step, mode,
    )
