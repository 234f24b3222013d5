"""Shared builders and brute-force oracles for the test suite."""

from fractions import Fraction
from math import gcd
import os
from pathlib import Path
import random
import subprocess
import sys

from aknsd.matrices import SmallMatrix
from aknsd.series import MatSeries, series_mul

RAT = "rational"

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, env=None):
    """``python -m aknsd.cli ARGS`` in a child that imports this checkout's src.

    The repository ``src`` goes first on the child's PYTHONPATH, so the child
    needs neither an installed package nor an inherited PYTHONPATH.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "aknsd.cli", *args],
                          capture_output=True, text=True, env=env)


def ref_matmul(a, b):
    """Product of two matrices given as row lists of ``Fraction``s."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def ref_inverse(a):
    """Gauss-Jordan on row lists, first nonzero pivot; None when singular."""
    m = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(m):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def assert_canonical(mat):
    """A rational matrix's numerators and denominator share no factor; den > 0."""
    num, den = mat.numerators()
    assert den > 0
    assert gcd(den, *(x for row in num for x in row)) == 1


def mat(rows, mode=RAT):
    return SmallMatrix.from_rows(rows, mode)


def rand_fraction(rng, num=3, den=(1, 2, 3)):
    return Fraction(rng.randint(-num, num), rng.choice(den))


def rand_matrix(rng, m, mode=RAT):
    return SmallMatrix.from_rows(
        [[rand_fraction(rng) for _ in range(m)] for _ in range(m)], mode
    )


def rand_series(rng, m, lo, hi, valid_lo=None, mode=RAT):
    coeffs = {d: rand_matrix(rng, m, mode) for d in range(lo, hi + 1)}
    return MatSeries.from_coeffs(coeffs, m, mode, lo=lo, hi=hi, valid_lo=valid_lo)


def extended_band_product(a, b, extra=4):
    """Oracle for product validity: recompute with wider bands, compare."""
    return series_mul(completion(a, extra), completion(b, extra))


def completion(s, extra=4, seed=12345):
    """A fully known series that agrees with ``s`` on every degree ``s`` knows.

    Each degree ``s`` does not know -- stored ones below ``valid_lo`` and
    ``extra`` more below its band -- gets a fresh random coefficient, so a
    recomputation exercises exactly what the original could not see.  A fully
    known ``s`` has no such degree and comes back as it is.
    """
    if s.valid_lo is None:
        return s
    rng = random.Random(seed)
    coeffs = {d: s.coeffs[d - s.lo] if d >= s.valid_lo else rand_matrix(rng, s.m, s.mode)
              for d in range(s.lo - extra, s.hi + 1)}
    return MatSeries.from_coeffs(coeffs, s.m, s.mode, lo=s.lo - extra, hi=s.hi)
