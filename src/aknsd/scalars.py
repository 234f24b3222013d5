"""Scalar coefficient field with two modes.

Every container in the workbench (matrices, series, lattice functions)
carries a ``mode`` tag:

* ``"rational"`` -- scalars are :class:`fractions.Fraction`; all ring
  operations are exact and equality is decidable.  This is the default for
  verification suites.  A rational matrix stores its entries as integer
  numerators over one common denominator (see :mod:`aknsd.matrices`) and
  hands them out as ``Fraction``s.
* ``"float"`` -- scalars are binary doubles; used by the time-stepping and
  continuum-limit code where discretisation error dominates anyway.

Scalars outside matrices are plain ``Fraction``/``float`` values; the helpers
here convert, format and round-trip them, and enforce that modes are never
mixed inside one computation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModeError

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

Scalar = Fraction | float


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ModeError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def join_modes(a: str, b: str) -> str:
    """Common mode of two operands; mixing modes is an error."""
    if a != b:
        raise ModeError(f"scalar-mode mismatch: {a!r} vs {b!r}")
    return check_mode(a)


def as_scalar(value, mode: str) -> Scalar:
    """Coerce ``value`` (number or string) into the given mode.

    Rational mode accepts ints, Fractions and "p/q" / decimal strings but
    rejects floats, so exactness can never be silently lost.
    """
    check_mode(mode)
    if mode == RATIONAL:
        if isinstance(value, float):
            raise ModeError(f"refusing to coerce float {value!r} into rational mode")
        return Fraction(value)
    return float(value)


def zero(mode: str) -> Scalar:
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str) -> Scalar:
    return Fraction(1) if mode == RATIONAL else 1.0


def format_scalar(value: Scalar) -> str:
    """Serialise a scalar to a string that round-trips exactly.

    Rationals become "p/q" in lowest terms ("p" when q == 1); floats use
    ``repr``, which round-trips bit-for-bit in Python 3.
    """
    if isinstance(value, float):  # first: the check against the Fraction ABC is slower
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def parse_scalar(text: str, mode: str) -> Scalar:
    check_mode(mode)
    if mode == RATIONAL:
        return Fraction(text)
    return float(text)


def scalar_abs(value: Scalar):
    return -value if value < 0 else value


def max_of(values, mode: str) -> Scalar:
    """Largest of the magnitudes ``values``, starting from the zero of ``mode``.

    Starting from a typed zero keeps an exact zero rational (it renders "0").
    A nan among the values is the result: it compares false with everything,
    so a plain ``v > best`` scan would drop it and pass a check it fails.
    """
    best = zero(mode)
    for v in values:
        if not v <= best:  # a larger v, or a nan
            if v != v:
                return v
            best = v
    return best
