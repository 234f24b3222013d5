"""Small dense square matrices over the scalar field.

Dimensions are fixed at construction and deliberately tiny (2 <= m <= 8 for
instance data; m == 1 is allowed so scalar series can reuse the same code).
Values are immutable; operations are pure and may be shared freely between
concurrent tasks.

A rational matrix is stored as integer numerator rows over one positive
common denominator, kept canonical: the gcd of every numerator and the
denominator is 1, so equal matrices have equal fields.  The ring operations
work on Python ints (entries outgrow 64 bits) and make each result canonical
with one gcd sweep.  A sum of products is one integer block product
(``sum_of_products``): the left factors are set side by side, the right
ones, each scaled to the lcm of the term denominators, are stacked, and the
unreduced product is swept once.
``rows`` and ``get`` hand out ``Fraction`` entries in lowest terms, and fill a
cache to do it; ``numerators`` and ``from_lowest_terms`` are the integer view
for exact code outside this module, and ``over_lcm`` is the one rule that
makes lowest-terms entries canonical without a sweep.  A float matrix stores its rows of doubles
directly.  The column kernels of ``hierarchy`` and ``dynamics`` read a
matrix with ``rows`` (float) or ``numerators`` (rational), form products on
the columns as ``_product`` forms them, and wrap each result with
``_floats``, or ``_exact`` with its one gcd sweep.

Both modes form a product with the one row-times-column helper
``_product``: on the integer numerators, or on the doubles, where it sums in
the same order as a plain loop and so is bit for bit the same.  A product
with a diagonal matrix is a row or column scaling (``_diag_product``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from . import scalars
from .errors import DimensionError, ModeError, SingularError

MAX_DIM = 8


def _product(a: tuple, b: tuple) -> tuple:
    """Matrix product of two row tuples: integer numerators or doubles.

    Each entry is ``sum(map(mul, row, col))``: the products summed left to
    right from the integer 0.
    """
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _diag_product(d: tuple, rows: tuple, left: bool) -> tuple:
    """``diag(d) @ rows`` when ``left``, else ``rows @ diag(d)``: a row or column scaling.

    Each entry is ``0 + d_r * x`` (or ``0 + x * d_k``), the one term of the
    ``_product`` entry whose diagonal factor is not zero.  On integer
    numerators that is the entry.  On doubles the other terms are +-0.0 when
    the entries are finite, and ``0 + (-0.0)`` is ``0.0``, so it is the
    ``_product`` entry bit for bit; only an inf elsewhere in the row or column
    differs, where the product has nan (``0.0 * inf``) and the scaling does not.
    """
    if left:
        return tuple([tuple([0 + s * x for x in row]) for s, row in zip(d, rows)])
    return tuple([tuple([0 + x * s for x, s in zip(row, d)]) for row in rows])


def over_lcm(pairs) -> tuple:
    """A sequence of lowest-terms pairs ``(p, q)``, q > 0, as numerators over the
    lcm of the q's.

    Returns ``(numerators, lcm)``, already canonical: a prime of the lcm
    divides some q to its full power, and that entry's ``p * (lcm // q)``
    not at all.  So no gcd sweep is needed.
    """
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def _fraction(x) -> Fraction:
    """A rational matrix entry as a Fraction; a float or other type is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ModeError(f"refusing entry {x!r} in a rational matrix")


class SmallMatrix:
    """Immutable m x m matrix; ``rows`` is a tuple of row tuples."""

    __slots__ = ("m", "mode", "_num", "_den", "_rows")

    def __init__(self, m: int, mode: str, rows):
        scalars.check_mode(mode)
        if not (1 <= m <= MAX_DIM):
            raise DimensionError(f"matrix dimension {m} outside 1..{MAX_DIM}")
        if len(rows) != m or any(len(r) != m for r in rows):
            raise DimensionError("row shape does not match declared dimension")
        self.m = m
        self.mode = mode
        if mode == scalars.FLOAT:
            self._num = self._den = None
            self._rows = tuple(tuple(r) for r in rows)
            return
        fracs = tuple(tuple(map(_fraction, r)) for r in rows)
        den = lcm(*(x.denominator for x in chain.from_iterable(fracs)))
        self._num = tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                          for r in fracs)
        self._den = den
        self._rows = fracs

    @classmethod
    def _exact(cls, m: int, num: tuple, den: int) -> "SmallMatrix":
        """Rational result of a ring operation on checked operands, made canonical."""
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple([tuple([x // g for x in r]) for r in num])
            den //= g
        return cls._canonical(m, num, den)

    @classmethod
    def _canonical(cls, m: int, num: tuple, den: int) -> "SmallMatrix":
        """Rational matrix from numerators and a denominator already canonical."""
        out = object.__new__(cls)
        out.m, out.mode, out._num, out._den, out._rows = m, scalars.RATIONAL, num, den, None
        return out

    @classmethod
    def _floats(cls, m: int, rows: tuple) -> "SmallMatrix":
        """Float result of a ring operation on checked operands."""
        out = object.__new__(cls)
        out.m, out.mode, out._num, out._den, out._rows = m, scalars.FLOAT, None, None, rows
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows, mode: str) -> "SmallMatrix":
        conv = tuple(
            tuple(scalars.as_scalar(x, mode) for x in row) for row in rows
        )
        return SmallMatrix(len(conv), mode, conv)

    @classmethod
    def from_lowest_terms(cls, entries) -> "SmallMatrix":
        """Rational matrix from rows of ``(p, q)`` pairs, each in lowest terms, q > 0,
        made canonical by ``over_lcm`` without a gcd sweep."""
        num, den = over_lcm([*chain.from_iterable(entries)])
        return cls._canonical(len(entries), tuple(zip(*[iter(num)] * len(entries))), den)

    @staticmethod
    @cache  # immutable, and at most one per (m, mode): share it
    def zero(m: int, mode: str) -> "SmallMatrix":
        return SmallMatrix.diag((0,) * m, mode)

    @staticmethod
    def identity(m: int, mode: str) -> "SmallMatrix":
        return SmallMatrix.diag((1,) * m, mode)

    @staticmethod
    def diag(entries, mode: str) -> "SmallMatrix":
        vals = [scalars.as_scalar(x, mode) for x in entries]
        m = len(vals)
        z = scalars.zero(mode)
        return SmallMatrix(
            m, mode, tuple(tuple(vals[i] if i == j else z for j in range(m)) for i in range(m))
        )

    @staticmethod
    def unit(m: int, i: int, j: int, mode: str, value=1) -> "SmallMatrix":
        """Matrix with a single entry at 1-based position (i, j)."""
        z = scalars.zero(mode)
        v = scalars.as_scalar(value, mode)
        return SmallMatrix(
            m,
            mode,
            tuple(
                tuple(v if (r == i - 1 and c == j - 1) else z for c in range(m))
                for r in range(m)
            ),
        )

    @staticmethod
    def basis_projector(m: int, alpha: int, mode: str) -> "SmallMatrix":
        """E_alpha: the diagonal projector onto the 1-based basis index alpha."""
        return SmallMatrix.unit(m, alpha, alpha, mode)

    # -- accessors ----------------------------------------------------------

    @property
    def rows(self) -> tuple:
        """The entries as row tuples: ``Fraction``s in lowest terms, or floats."""
        if self._rows is None:
            den = self._den
            self._rows = tuple(tuple(Fraction(x, den) for x in r) for r in self._num)
        return self._rows

    def get(self, i: int, j: int):
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def numerators(self) -> tuple:
        """A rational matrix as (integer numerator rows, positive common denominator).

        The pair is canonical: the gcd of the denominator and every numerator is 1.
        """
        if self._den is None:
            raise ModeError("a float matrix has no integer numerators")
        return self._num, self._den

    def _compat(self, other: "SmallMatrix") -> None:
        if self.m != other.m:
            raise DimensionError(f"dimension mismatch: {self.m} vs {other.m}")
        if self.mode != other.mode:
            scalars.join_modes(self.mode, other.mode)

    def __eq__(self, other):
        if not isinstance(other, SmallMatrix):
            return NotImplemented
        if self.m != other.m or self.mode != other.mode:
            return False
        if self._den is None:
            return self._rows == other._rows
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._den is None:
            return hash((self.m, self.mode, self._rows))
        return hash((self.m, self.mode, self._num, self._den))

    def __repr__(self):
        return f"SmallMatrix(m={self.m}, mode={self.mode!r}, rows={self.rows!r})"

    # -- ring operations ----------------------------------------------------

    def _sum(self, other: "SmallMatrix", op) -> "SmallMatrix":
        """Entrywise ``op`` (``add`` or ``sub``) of two compatible matrices."""
        self._compat(other)
        if self._den is None:
            return SmallMatrix._floats(self.m, tuple(
                [tuple(map(op, ra, rb)) for ra, rb in zip(self._rows, other._rows)]))
        da, db = self._den, other._den
        if da == db:
            return SmallMatrix._exact(self.m, tuple(
                tuple(map(op, ra, rb)) for ra, rb in zip(self._num, other._num)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return SmallMatrix._exact(self.m, tuple(
            tuple(op(x * fa, y * fb) for x, y in zip(ra, rb))
            for ra, rb in zip(self._num, other._num)), da * fa)

    def __add__(self, other: "SmallMatrix") -> "SmallMatrix":
        return self._sum(other, add)

    def __sub__(self, other: "SmallMatrix") -> "SmallMatrix":
        return self._sum(other, sub)

    def __neg__(self) -> "SmallMatrix":
        if self._den is None:
            return SmallMatrix._floats(self.m, tuple(tuple(-a for a in r) for r in self._rows))
        return SmallMatrix._canonical(self.m, tuple(tuple(-a for a in r) for r in self._num),
                                      self._den)

    def scale(self, s) -> "SmallMatrix":
        s = scalars.as_scalar(s, self.mode)
        if self._den is None:
            return SmallMatrix._floats(self.m, tuple(tuple(s * a for a in r) for r in self._rows))
        p = s.numerator
        return SmallMatrix._exact(self.m, tuple(tuple(p * a for a in r) for r in self._num),
                                  self._den * s.denominator)

    def __matmul__(self, other: "SmallMatrix") -> "SmallMatrix":
        self._compat(other)
        if self._den is None:
            return SmallMatrix._floats(self.m, _product(self._rows, other._rows))
        return SmallMatrix._exact(self.m, _product(self._num, other._num),
                                  self._den * other._den)

    def mul_diag(self, diag: "SmallMatrix", *, left: bool) -> "SmallMatrix":
        """``diag @ self`` (``left``) or ``self @ diag`` for a diagonal ``diag``.

        A row or column scaling (``_diag_product``); the off-diagonal entries
        of ``diag`` are not read.
        """
        self._compat(diag)
        if self._den is None:
            d = tuple(diag._rows[i][i] for i in range(self.m))
            return SmallMatrix._floats(self.m, _diag_product(d, self._rows, left))
        d = tuple(diag._num[i][i] for i in range(self.m))
        return SmallMatrix._exact(self.m, _diag_product(d, self._num, left),
                                  self._den * diag._den)

    @staticmethod
    def sum_of_products(pairs, m: int, mode: str) -> "SmallMatrix":
        """The sum of ``a @ b`` over the ``(a, b)`` pairs; zero for no pairs.

        Rational: one integer block product ``[a_1 | ... | a_P] [f_1 b_1; ...;
        f_P b_P]``, each ``b_p`` scaled by ``f_p = lcm / (den a_p den b_p)``,
        the lcm of all the term denominators: the unreduced sum over the lcm,
        swept once.  Float: ``acc + (a @ b)`` from a zero ``acc``, in pair
        order, exactly as a loop of ring operations adds them.
        """
        zero = SmallMatrix.zero(m, mode)
        if mode == scalars.FLOAT:
            acc = zero
            for a, b in pairs:
                acc = acc + (a @ b)
            return acc
        lefts, right, dens = [], [], []
        for a, b in pairs:
            zero._compat(a)
            a._compat(b)
            lefts.append(a._num)
            right.extend(b._num)
            dens.extend([a._den * b._den] * m)
        if not dens:
            return zero
        left = lefts[0] if len(lefts) == 1 else [[*chain.from_iterable(r)] for r in zip(*lefts)]
        den = lcm(*dens)
        right = [row if d == den else [(den // d) * x for x in row]
                 for row, d in zip(right, dens)]
        return SmallMatrix._exact(m, _product(left, right), den)

    def transpose(self) -> "SmallMatrix":
        if self._den is None:
            return SmallMatrix._floats(self.m, tuple(zip(*self._rows)))
        return SmallMatrix._canonical(self.m, tuple(zip(*self._num)), self._den)

    def trace(self):
        if self._den is None:
            return sum(self._rows[i][i] for i in range(self.m))
        return Fraction(sum(self._num[i][i] for i in range(self.m)), self._den)

    def diagonal_part(self) -> "SmallMatrix":
        m = self.m
        if self._den is None:
            return SmallMatrix._floats(m, tuple(
                tuple(self._rows[i][j] if i == j else 0.0 for j in range(m))
                for i in range(m)))
        return SmallMatrix._exact(m, tuple(
            tuple(self._num[i][j] if i == j else 0 for j in range(m)) for i in range(m)),
            self._den)

    def inverse(self) -> "SmallMatrix":
        """Gauss-Jordan inverse; exact in rational mode."""
        m = self.m
        z, o = scalars.zero(self.mode), scalars.one(self.mode)
        aug = [list(row) + [o if i == j else z for j in range(m)]
               for i, row in enumerate(self.rows)]
        for col in range(m):
            pivot = max(
                range(col, m), key=lambda r: scalars.scalar_abs(aug[r][col])
            )
            if aug[pivot][col] == 0:
                raise SingularError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            p = aug[col][col]
            aug[col] = [x / p for x in aug[col]]
            for r in range(m):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return SmallMatrix(m, self.mode, tuple(tuple(row[m:]) for row in aug))

    # -- predicates / norms --------------------------------------------------

    def is_zero(self) -> bool:
        if self._den is None:
            return all(a == 0 for r in self._rows for a in r)
        return not any(chain.from_iterable(self._num))

    def max_abs(self):
        """The largest entry magnitude; a nan entry makes it nan (``scalars.max_of``)."""
        if self._den is None:
            return scalars.max_of(map(abs, chain.from_iterable(self._rows)), self.mode)
        return Fraction(max(map(abs, chain.from_iterable(self._num))), self._den)
