"""Canonical and seeded-random desk instances.

Two reference instance classes are used throughout the verification suites:
m = 2 with A = diag(1, -1) and m = 3 with A = diag(1, 2, -1), both on the
window [-8, 8] with halo 10, solved to depth 8.

Random potentials come in two flavours, both from ``random_potential``.  By
default it fills all off-diagonal entries; that exercises the dressing and
resolvent identities, which hold for any admissible potential.  With
``triangular=True`` it fills only entries above the diagonal; on this
nilpotent class the degree-0 diagonal of every flow vanishes identically, so
it is the natural carrier for flow-based checks (see docs/derivations.md on
the diagonal drift).
"""

from __future__ import annotations

from fractions import Fraction
import random

from . import scalars
from .hierarchy import AknsData, make_potential
from .lattice import Window
from .matrices import SmallMatrix

DESK_WINDOW = Window(-8, 8, 10)
DESK_DEPTH = 8


def desk_data(m: int, mode: str = scalars.RATIONAL) -> AknsData:
    if m == 2:
        return AknsData(2, tuple(scalars.as_scalar(x, mode) for x in (1, -1)), mode)
    if m == 3:
        return AknsData(3, tuple(scalars.as_scalar(x, mode) for x in (1, 2, -1)), mode)
    raise ValueError(f"no desk instance with m = {m}")


def vacuum_potential(window: Window, m: int, mode: str = scalars.RATIONAL):
    return make_potential(window, {}, m, mode)


def impulse_potential(window: Window, m: int, mode: str = scalars.RATIONAL,
                      site: int = 0, i: int = 1, j: int = 2, value=1):
    """Single off-diagonal impulse: U = value * E_ij at one site."""
    entry = SmallMatrix.unit(m, i, j, mode, value)
    return make_potential(window, {site: entry}, m, mode)


def _rand_value(rng: random.Random, mode: str):
    v = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    return scalars.as_scalar(v if mode == scalars.RATIONAL else float(v), mode)


def random_matrix(rng: random.Random, m: int, mode: str = scalars.RATIONAL) -> SmallMatrix:
    """Seeded m x m matrix, entries drawn row by row as ``_rand_value`` draws them."""
    return SmallMatrix.from_rows(
        [[_rand_value(rng, mode) for _ in range(m)] for _ in range(m)], mode)


def random_potential(window: Window, data: AknsData, rng: random.Random,
                     *, span: int = 4, density: float = 0.6,
                     triangular: bool = False):
    """Seeded random potential supported on [-span, span]."""
    mode = data.mode
    m = data.m
    entries = {}
    for n in range(-span, span + 1):
        rows = [[scalars.zero(mode)] * m for _ in range(m)]
        nonzero = False
        for i in range(m):
            for j in range(m):
                if i == j or (triangular and i > j):
                    continue
                if rng.random() < density:
                    v = _rand_value(rng, mode)
                    if v != 0:
                        rows[i][j] = v
                        nonzero = True
        if nonzero:
            entries[n] = SmallMatrix.from_rows(rows, mode)
    return make_potential(window, entries, m, mode)
