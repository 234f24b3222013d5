"""Small dense square matrices over the scalar field.

Dimensions are fixed at construction and deliberately tiny (2 <= m <= 8 for
instance data; m == 1 is allowed so scalar series can reuse the same code).
Values are immutable; operations are pure and may be shared freely between
concurrent tasks.

A rational matrix is stored as integer numerator rows over one positive
common denominator, kept canonical: the gcd of every numerator and the
denominator is 1, so equal matrices have equal fields.  The ring operations
work on Python ints (entries outgrow 64 bits) and make each result canonical
with one gcd sweep; ``sum_of_products`` sums its products unreduced over the
lcm of their denominators and sweeps once, on the finished sum.  ``rows`` and
``get`` hand out ``Fraction`` entries in lowest terms; ``numerators`` and
``from_lowest_terms`` are the integer view for exact kernels outside this
module.  A float matrix stores its rows of doubles directly.
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


def _num_product(a: tuple, b: tuple) -> tuple:
    """Integer matrix product of two numerator row tuples."""
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


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
        """Rational matrix from rows of ``(p, q)`` pairs, each in lowest terms, q > 0.

        The numerators over the lcm of the q's are already canonical: a prime
        of the lcm divides some q to its full power, and that entry's
        ``p * (lcm // q)`` not at all.  So no gcd sweep is run.
        """
        den = lcm(*(q for row in entries for _, q in row))
        return cls._canonical(len(entries), tuple(
            tuple(p * (den // q) for p, q in row) for row in entries), den)

    @staticmethod
    @cache  # immutable, and at most one per (m, mode): share it
    def zero(m: int, mode: str) -> "SmallMatrix":
        z = scalars.zero(mode)
        return SmallMatrix(m, mode, tuple((z,) * m for _ in range(m)))

    @staticmethod
    def identity(m: int, mode: str) -> "SmallMatrix":
        z, o = scalars.zero(mode), scalars.one(mode)
        return SmallMatrix(
            m, mode, tuple(tuple(o if i == j else z for j in range(m)) for i in range(m))
        )

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
                tuple(map(op, ra, rb)) for ra, rb in zip(self._rows, other._rows)))
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
            cols = tuple(zip(*other._rows))
            return SmallMatrix._floats(self.m, tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self._rows))
        return SmallMatrix._exact(self.m, _num_product(self._num, other._num),
                                  self._den * other._den)

    @staticmethod
    def sum_of_products(pairs, m: int, mode: str) -> "SmallMatrix":
        """The sum of ``a @ b`` over the ``(a, b)`` pairs; zero for no pairs.

        Rational: each product's numerator rows are scaled to the lcm of the
        product denominators and summed unreduced, and the finished sum gets
        the one gcd sweep.  Float: ``acc + (a @ b)`` from a zero ``acc``, in
        pair order, exactly as a loop of ring operations adds them.
        """
        zero = SmallMatrix.zero(m, mode)
        if mode == scalars.FLOAT:
            acc = zero
            for a, b in pairs:
                acc = acc + (a @ b)
            return acc
        prods = []
        for a, b in pairs:
            zero._compat(a)
            a._compat(b)
            prods.append((_num_product(a._num, b._num), a._den * b._den))
        if not prods:
            return zero
        den = lcm(*(d for _, d in prods))
        flat = tuple(map(sum, zip(*(
            chain.from_iterable(num) if d == den else
            [x * (den // d) for x in chain.from_iterable(num)] for num, d in prods))))
        return SmallMatrix._exact(m, tuple(flat[r * m:(r + 1) * m] for r in range(m)), den)

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
        if self._den is None:
            return max(scalars.scalar_abs(a) for r in self._rows for a in r)
        return Fraction(max(map(abs, chain.from_iterable(self._num))), self._den)
