"""Truncated matrix-valued Laurent series in the spectral parameter z.

A :class:`MatSeries` stores one :class:`SmallMatrix` coefficient per degree in
the band ``[lo, hi]``.  Degrees above ``hi`` are exactly zero (the band is
never truncated from above).  What lies below is told by one field,
``valid_lo``, and telling the cases apart is what makes order-by-order
verification claims sound:

* ``valid_lo is None``: the series is fully known, and degrees below ``lo``
  are exactly zero too (a finite Laurent polynomial, e.g. ``z A - U`` or a
  basis projector).
* ``valid_lo`` an integer: degrees below it have been dropped by a truncating
  operation and are unknown; reading them is an error.

Every arithmetic result carries a freshly computed ``valid_lo``: sums take the
worse of the inputs, a Cauchy product of ``a`` and ``b`` is exact for degrees
``>= max(valid_lo_a + hi_b, valid_lo_b + hi_a)`` (an unknown coefficient of
one factor first pollutes the product when paired with the top coefficient of
the other), and fully-known factors never limit depth at all.  Validity is
per-object metadata rather than a global truncation depth because products of
series with different top degrees lose depth at different rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .errors import DimensionError, SingularError, ValidityError
from .matrices import SmallMatrix


@dataclass(frozen=True)
class MatSeries:
    """Laurent series with SmallMatrix coefficients on the band [lo, hi]."""

    m: int
    mode: str
    lo: int
    hi: int
    coeffs: tuple  # one SmallMatrix per degree lo..hi
    # lowest degree guaranteed exact (hi+1: nothing is); None: fully known
    valid_lo: int | None

    def __post_init__(self):
        scalars.check_mode(self.mode)
        if self.lo > self.hi:
            raise DimensionError(f"empty band [{self.lo}, {self.hi}]")
        if len(self.coeffs) != self.hi - self.lo + 1:
            raise DimensionError("coefficient count does not match band")
        if self.valid_lo is not None and not (self.lo <= self.valid_lo <= self.hi + 1):
            raise ValidityError(
                f"valid_lo {self.valid_lo} outside [{self.lo}, {self.hi + 1}]"
            )
        for c in self.coeffs:
            if c.m != self.m:
                raise DimensionError("coefficient dimension mismatch")
            if c.mode != self.mode:
                scalars.join_modes(c.mode, self.mode)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_coeffs(entries: dict, m: int, mode: str, *, lo=None, hi=None,
                    valid_lo=None) -> "MatSeries":
        """Build a series from a degree -> SmallMatrix mapping.

        Absent degrees inside the band are zero.  By default the object is
        fully known (a finite Laurent polynomial), so everything below the
        band is exactly zero too; ``valid_lo`` marks a truncated series.
        """
        degrees = sorted(entries)
        band_lo = lo if lo is not None else (degrees[0] if degrees else 0)
        band_hi = hi if hi is not None else (degrees[-1] if degrees else 0)
        z = SmallMatrix.zero(m, mode)
        coeffs = tuple(entries.get(d, z) for d in range(band_lo, band_hi + 1))
        return MatSeries(m, mode, band_lo, band_hi, coeffs, valid_lo)

    @staticmethod
    def zero(m: int, mode: str, lo: int = 0, hi: int = 0) -> "MatSeries":
        return MatSeries.from_coeffs({}, m, mode, lo=lo, hi=hi)

    @staticmethod
    def constant(mat: SmallMatrix) -> "MatSeries":
        """Promote a matrix to the exact degree-0 series."""
        return MatSeries.monomial(mat, 0)

    @staticmethod
    def monomial(mat: SmallMatrix, degree: int) -> "MatSeries":
        return MatSeries(mat.m, mat.mode, degree, degree, (mat,), None)

    # -- access ---------------------------------------------------------------

    def valid_at(self, degree: int) -> bool:
        return degree > self.hi or self.valid_lo is None or degree >= self.valid_lo

    def get(self, degree: int) -> SmallMatrix:
        """Coefficient at ``degree``; zero outside the band, error below validity."""
        if not self.valid_at(degree):
            raise ValidityError(
                f"degree {degree} below validity bound {self.valid_lo}"
            )
        if degree > self.hi or degree < self.lo:
            return SmallMatrix.zero(self.m, self.mode)
        return self.coeffs[degree - self.lo]

    def valid_degrees(self):
        """Degrees in the stored band that carry guaranteed-exact coefficients."""
        return range(self.lo if self.valid_lo is None else self.valid_lo, self.hi + 1)

    def _compat(self, other: "MatSeries") -> None:
        if self.m != other.m:
            raise DimensionError(f"dimension mismatch: {self.m} vs {other.m}")
        scalars.join_modes(self.mode, other.mode)

    # -- linear operations -----------------------------------------------------

    def __add__(self, other: "MatSeries") -> "MatSeries":
        return _combine(self, other, 1)

    def __sub__(self, other: "MatSeries") -> "MatSeries":
        return _combine(self, other, -1)

    def __neg__(self) -> "MatSeries":
        return MatSeries(self.m, self.mode, self.lo, self.hi,
                         tuple(-c for c in self.coeffs),
                         self.valid_lo)

    def scale(self, s) -> "MatSeries":
        """Multiply by a plain scalar."""
        s = scalars.as_scalar(s, self.mode)
        return MatSeries(self.m, self.mode, self.lo, self.hi,
                         tuple(c.scale(s) for c in self.coeffs),
                         self.valid_lo)

    def shift_degree(self, j: int) -> "MatSeries":
        """Multiply by the monomial z**j."""
        vlo = None if self.valid_lo is None else self.valid_lo + j
        return MatSeries(self.m, self.mode, self.lo + j, self.hi + j, self.coeffs, vlo)

    # -- predicates / norms ------------------------------------------------------

    def max_abs(self):
        """Max absolute entry over guaranteed-valid degrees."""
        return scalars.max_of(
            (self.coeffs[d - self.lo].max_abs() for d in self.valid_degrees()),
            self.mode,
        )

    def is_zero(self) -> bool:
        return all(self.coeffs[d - self.lo].is_zero() for d in self.valid_degrees())

    def trim_top(self) -> "MatSeries":
        """Drop exactly-zero top coefficients (never past valid_lo or lo)."""
        hi = self.hi
        floor = self.valid_degrees().start
        while hi > floor and self.coeffs[hi - self.lo].is_zero():
            hi -= 1
        if hi == self.hi:
            return self
        return MatSeries(self.m, self.mode, self.lo, hi,
                         self.coeffs[: hi - self.lo + 1], self.valid_lo)


def _check_knows_a_degree(valid_lo: int, hi: int) -> None:
    """Refuse a result whose validity would start above its top degree."""
    if valid_lo > hi:
        raise ValidityError(f"the result knows no degree: validity starts at "
                            f"{valid_lo}, above its top degree {hi}")


def _combine(a: MatSeries, b: MatSeries, sign: int) -> MatSeries:
    a._compat(b)
    hi = max(a.hi, b.hi)
    known = [s.valid_lo for s in (a, b) if s.valid_lo is not None]
    vlo = max(known + [min(a.lo, b.lo)]) if known else None
    lo = min(a.lo, b.lo) if vlo is None else vlo
    _check_knows_a_degree(lo, hi)
    coeffs = tuple(a.get(d) + b.get(d) if sign > 0 else a.get(d) - b.get(d)
                   for d in range(lo, hi + 1))
    return MatSeries(a.m, a.mode, lo, hi, coeffs, vlo)


def product_band(a: MatSeries, b: MatSeries) -> tuple:
    """``(lo, hi, valid_lo)`` of the Cauchy product of ``a`` and ``b``.

    The product is exact from ``max(valid_lo_a + hi_b, valid_lo_b + hi_a)``
    (see the module docstring) and its band starts there; two fully known
    factors give a fully known product.  A product that would know no degree
    is refused.
    """
    a._compat(b)
    hi = a.hi + b.hi
    lo_true = a.lo + b.lo
    cands = [x.valid_lo + y.hi for x, y in ((a, b), (b, a)) if x.valid_lo is not None]
    vlo = max(cands + [lo_true]) if cands else None
    band_lo = lo_true if vlo is None else vlo
    _check_knows_a_degree(band_lo, hi)
    return band_lo, hi, vlo


def series_mul(a: MatSeries, b: MatSeries) -> MatSeries:
    """Cauchy product with sound validity bookkeeping."""
    band_lo, hi, vlo = product_band(a, b)
    a_nz = [not c.is_zero() for c in a.coeffs]
    b_nz = [not c.is_zero() for c in b.coeffs]

    def pairs(d):
        for i in range(max(a.lo, d - b.hi), min(a.hi, d - b.lo) + 1):
            if a_nz[i - a.lo] and b_nz[d - i - b.lo]:
                yield a.coeffs[i - a.lo], b.coeffs[d - i - b.lo]

    coeffs = tuple(SmallMatrix.sum_of_products(pairs(d), a.m, a.mode)
                   for d in range(band_lo, hi + 1))
    return MatSeries(a.m, a.mode, band_lo, hi, coeffs, vlo)


def series_inverse(a: MatSeries, depth: int) -> MatSeries:
    """Multiplicative inverse through ``depth`` orders below the top degree.

    Requires the (trimmed) top coefficient to be invertible.  The result b has
    band ``[-a.hi - depth, -a.hi]`` and satisfies a*b = b*a = I + (terms below
    the shared validity band).
    """
    if depth < 0:
        raise ValidityError("depth must be >= 0")
    a = a.trim_top()
    avail = None if a.valid_lo is None else a.hi - a.valid_lo
    if avail is not None and depth > avail:
        raise ValidityError(
            f"requested depth {depth} exceeds input validity depth {avail}"
        )
    try:
        top_inv = a.coeffs[a.hi - a.lo].inverse()
    except SingularError:
        raise SingularError("top coefficient of series is singular") from None
    h = a.hi
    out = {0: top_inv}
    # the nonzero coefficients h-1 .. h-depth, all valid since depth <= avail
    below = [(i, c) for i in range(1, depth + 1) if not (c := a.get(h - i)).is_zero()]
    for j in range(1, depth + 1):
        acc = SmallMatrix.sum_of_products(
            ((c, out[j - i]) for i, c in below if i <= j), a.m, a.mode)
        out[j] = -(top_inv @ acc)
    coeffs = tuple(out[j] for j in range(depth, -1, -1))
    return MatSeries(a.m, a.mode, -h - depth, -h, coeffs, -h - depth)


def series_project(a: MatSeries, part: str):
    """Split into non-negative / strictly-negative degrees.

    ``plus``  -> degrees >= 0 unchanged (an exact polynomial);
    ``minus`` -> a - plus(a), carrying a's validity below zero.
    """
    if part == "plus":
        if not a.valid_at(0):
            raise ValidityError("plus-projection needs degree 0 inside the valid band")
        hi = max(a.hi, 0)
        return MatSeries(a.m, a.mode, 0, hi, tuple(a.get(d) for d in range(0, hi + 1)), None)
    if part == "minus":
        if not a.valid_at(-1):
            raise ValidityError("minus-projection needs degree -1 inside the valid band")
        lo = a.valid_degrees().start
        if lo > -1:
            return MatSeries.zero(a.m, a.mode, -1, -1)
        return MatSeries(a.m, a.mode, lo, -1,
                         tuple(a.get(d) for d in range(lo, 0)), a.valid_lo)
    raise ValueError(f"unknown projection {part!r}")


def series_diff_max(a: MatSeries, b: MatSeries, degrees=None):
    """Max-abs entry of a - b over ``degrees``.

    By default the degrees run from the lower band start (a fully known
    operand is exactly zero below its band) to the higher top degree, raised
    to the validity start of any operand that is not fully known.
    """
    if degrees is None:
        lo = max([min(a.lo, b.lo)] +
                 [s.valid_lo for s in (a, b) if s.valid_lo is not None])
        degrees = range(lo, max(a.hi, b.hi) + 1)
    return scalars.max_of(((a.get(d) - b.get(d)).max_abs() for d in degrees), a.mode)


def series_equal(a: MatSeries, b: MatSeries) -> bool:
    """Equality on every degree both operands know (exact modes)."""
    return series_diff_max(a, b) == 0
