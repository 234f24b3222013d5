"""Small dense square matrices over the scalar field.

Dimensions are fixed at construction and deliberately tiny (2 <= m <= 8 for
instance data; m == 1 is allowed so scalar series can reuse the same code).
Values are immutable; operations are pure and may be shared freely between
concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import scalars
from .errors import DimensionError, SingularError

MAX_DIM = 8


@dataclass(frozen=True)
class SmallMatrix:
    """Immutable m x m matrix; ``rows`` is a tuple of row tuples."""

    m: int
    mode: str
    rows: tuple

    def __post_init__(self):
        scalars.check_mode(self.mode)
        if not (1 <= self.m <= MAX_DIM):
            raise DimensionError(f"matrix dimension {self.m} outside 1..{MAX_DIM}")
        if len(self.rows) != self.m or any(len(r) != self.m for r in self.rows):
            raise DimensionError("row shape does not match declared dimension")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows, mode: str) -> "SmallMatrix":
        conv = tuple(
            tuple(scalars.as_scalar(x, mode) for x in row) for row in rows
        )
        return SmallMatrix(len(conv), mode, conv)

    @staticmethod
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

    def get(self, i: int, j: int):
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def _compat(self, other: "SmallMatrix") -> None:
        if self.m != other.m:
            raise DimensionError(f"dimension mismatch: {self.m} vs {other.m}")
        scalars.join_modes(self.mode, other.mode)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SmallMatrix") -> "SmallMatrix":
        self._compat(other)
        return SmallMatrix(
            self.m,
            self.mode,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "SmallMatrix") -> "SmallMatrix":
        self._compat(other)
        return SmallMatrix(
            self.m,
            self.mode,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> "SmallMatrix":
        return SmallMatrix(
            self.m, self.mode, tuple(tuple(-a for a in r) for r in self.rows)
        )

    def scale(self, s) -> "SmallMatrix":
        s = scalars.as_scalar(s, self.mode)
        return SmallMatrix(
            self.m, self.mode, tuple(tuple(s * a for a in r) for r in self.rows)
        )

    def __matmul__(self, other: "SmallMatrix") -> "SmallMatrix":
        self._compat(other)
        m = self.m
        cols = tuple(zip(*other.rows))
        return SmallMatrix(
            m,
            self.mode,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            ),
        )

    def transpose(self) -> "SmallMatrix":
        return SmallMatrix(self.m, self.mode, tuple(zip(*self.rows)))

    def map(self, fn: Callable) -> "SmallMatrix":
        return SmallMatrix(
            self.m, self.mode, tuple(tuple(fn(a) for a in r) for r in self.rows)
        )

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.m))

    def diagonal_part(self) -> "SmallMatrix":
        z = scalars.zero(self.mode)
        return SmallMatrix(
            self.m,
            self.mode,
            tuple(
                tuple(self.rows[i][j] if i == j else z for j in range(self.m))
                for i in range(self.m)
            ),
        )

    def inverse(self) -> "SmallMatrix":
        """Gauss-Jordan inverse; exact in rational mode."""
        m = self.m
        aug = [list(self.rows[i]) + list(SmallMatrix.identity(m, self.mode).rows[i]) for i in range(m)]
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
        return all(a == 0 for r in self.rows for a in r)

    def max_abs(self):
        return max(scalars.scalar_abs(a) for r in self.rows for a in r)

